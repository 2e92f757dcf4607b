#!/usr/bin/env sh
# Per-PR performance trajectory point. Runs the three headline hot-path
# benches best-of-5 and writes results/BENCH_<label>.json so future PRs
# can see the perf curve instead of re-deriving it from git archaeology:
#
#   - gups_events_per_sec:   BenchmarkCellBlock's events/sec metric —
#                            the number the 10M/sec roadmap item tracks
#   - translate_block_ns_op: BenchmarkTranslateBlock (one 4096-event
#                            TLB-friendly block through the MMU)
#   - host_quantum_ms:       BenchmarkHostQuantum (one consolidated-
#                            host policy quantum, 4 guests)
#   - escape_probe_ns:       BenchmarkMayContainMiss (one escape-filter
#                            probe that misses)
#
# Each point is stamped with the host it was measured on: CPU model,
# nproc, GOMAXPROCS and Go version.
#
# Usage: scripts/benchtrend.sh <label>
#
# Best-of-5 is the same noise-robust statistic benchgate.sh uses; on a
# shared runner any single run can eat a scheduling spike. Numbers from
# different hosts are not comparable — the trajectory is only a trend
# when recorded on the same class of runner.
set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: $0 <label>" >&2
    exit 2
fi
label=$1
out=results/BENCH_$label.json
mkdir -p results

# best PKG BENCH BENCHTIME FIELD -> best (minimum) value of FIELD over
# count=5, where FIELD is the unit suffix as printed by go test
# ("ns/op", "events/sec", ...). For events/sec the maximum is the best;
# pass MODE=max.
best() {
    pkg=$1 bench=$2 benchtime=$3 field=$4 mode=${5:-min}
    go test -run '^$' -bench "^$bench\$" -benchtime "$benchtime" -count 5 "$pkg" \
        | awk -v f="$field" -v mode="$mode" '
            $1 ~ /^Benchmark/ {
                for (i = 2; i < NF; i++) if ($(i + 1) == f) {
                    v = $i + 0
                    if (best == "" || (mode == "min" ? v < best : v > best)) best = v
                }
            }
            END { if (best == "") exit 1; print best }'
}

echo "benchtrend: recording trajectory point $out (best-of-5 per bench)"
gups=$(best ./internal/replay/ BenchmarkCellBlock 10x events/sec max)
tblk=$(best ./internal/mmu/ BenchmarkTranslateBlock 200x ns/op)
hostq=$(best ./internal/host/ BenchmarkHostQuantum 5x ns/op)
host_ms=$(awk -v n="$hostq" 'BEGIN{printf "%.2f", n / 1000000}')
probe=$(best ./internal/escape/ BenchmarkMayContainMiss 1000000x ns/op)

cpu=$(sed -n 's/^model name[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo 2>/dev/null | head -n 1 | tr -d '"\\')
cpu=${cpu:-$(uname -m)}
ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
gover=$(go env GOVERSION)

cat > "$out" <<EOF
{
  "pr": "$label",
  "cpu_model": "$cpu",
  "nproc": $ncpu,
  "gomaxprocs": ${GOMAXPROCS:-$ncpu},
  "go_version": "$gover",
  "gups_events_per_sec": $gups,
  "translate_block_ns_op": $tblk,
  "host_quantum_ms": $host_ms,
  "escape_probe_ns": $probe
}
EOF
cat "$out"
