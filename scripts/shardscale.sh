#!/usr/bin/env sh
# Shard-scaling measurement for the whole-host consolidation cell.
# Runs one hostsim cell (4 guests x 2 tenants of gups) at -shards
# 1/2/4/8 and verifies the report is byte-identical at every shard
# count (the determinism contract hostcheck.sh gates). The shard counts
# up to GOMAXPROCS are timed with best-of-3 wall clock and printed as a
# markdown scaling table for EXPERIMENTS.md; the larger ones run once,
# for the identity check only.
#
# Shard goroutines only buy throughput when there are cores to run
# them: a shard count above GOMAXPROCS would quote scheduler noise as
# "scaling", so it is never timed, and on a single-CPU host the script
# skips with a notice. Shard throughput is only quoted for counts the
# host can run in parallel.
set -eu
cd "$(dirname "$0")/.."

procs=${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)}
if [ "$procs" -lt 2 ]; then
    echo "shardscale: skipped — GOMAXPROCS=$procs < 2; shard scaling needs a multi-core host"
    exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/hostsim" ./cmd/hostsim

# One cell, sized so the serial run takes a few seconds: enough work
# for the per-shard goroutines to amortize their fork/join.
run() { "$tmp/hostsim" -guests 4 -tenants 2 -workload gups -ops 200000 -shards "$1"; }

best_ms() {
    sh=$1
    best=""
    for i in 1 2 3; do
        start=$(date +%s%N)
        run "$sh" > "$tmp/out-$sh.txt"
        end=$(date +%s%N)
        ms=$(( (end - start) / 1000000 ))
        if [ -z "$best" ] || [ "$ms" -lt "$best" ]; then best=$ms; fi
    done
    echo "$best"
}

echo "shardscale: GOMAXPROCS=$procs, best-of-3 wall clock per shard count <= $procs"
echo
echo "| -shards | best wall (ms) | speedup |"
echo "|---------|----------------|---------|"
base=""
for sh in 1 2 4 8; do
    if [ "$sh" -le "$procs" ]; then
        ms=$(best_ms "$sh")
    else
        run "$sh" > "$tmp/out-$sh.txt"
    fi
    if [ "$sh" != 1 ] && ! cmp -s "$tmp/out-1.txt" "$tmp/out-$sh.txt"; then
        echo "shardscale: report differs between -shards 1 and -shards $sh" >&2
        exit 1
    fi
    [ "$sh" -le "$procs" ] || continue
    if [ "$sh" = 1 ]; then
        base=$ms
        speedup="1.00x"
    else
        speedup=$(awk -v b="$base" -v m="$ms" 'BEGIN{printf "%.2fx", b/m}')
    fi
    echo "| $sh | $ms | $speedup |"
done
echo
echo "shardscale: reports byte-identical across -shards 1/2/4/8"
