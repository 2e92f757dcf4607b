#!/usr/bin/env sh
# Observation-overhead gate: watching a run may slow it only within a
# fixed bound. Two pairs of full gups cells are compared, each On/Off
# pair from the same internal/replay test binary:
#
#   BenchmarkTelemetryCellOn / BenchmarkTelemetryCellOff
#       a telemetry run active (replay spans, the replay.events meter
#       and the per-cell counters) vs none
#   BenchmarkTelemetryOverheadSampledOn / BenchmarkTelemetryOverheadSampledOff
#       1-in-64 walkprof sampling vs none
#
# Each pair runs interleaved rounds, Off then On, so host drift hits
# both sides alike. A round is one process per side timing 5 one-cell
# runs and keeping the fastest. The best (lowest) ns/op of each side
# over all rounds is kept, the noise-robust statistic on a shared
# runner, and a pair passes when its best-On / best-Off ratio is at
# most 1.03 after 7 rounds. Otherwise it runs 7 more, up to 21 in all,
# and fails if the ratio still exceeds the bound. More rounds can only
# lower each side's best toward its true floor, so a burst of host load
# that spoiled the first rounds is outvoted, while a real overhead
# keeps the ratio above the bound however long the gate runs. The gate
# compares a binary against itself, so it needs no recorded baseline
# and holds on any host.
#
#   sh scripts/overheadgate.sh
set -eu
cd "$(dirname "$0")/.."

rounds=7     # per batch
batches=3
runs=5
bound=1.03
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go test -c -o "$tmp/replay.test" ./internal/replay/

# bench NAME -> best ns/op of $runs one-cell runs of BenchmarkNAME in
# one process.
bench() {
    (cd internal/replay && "$tmp/replay.test" -test.run '^$' \
        -test.bench "^Benchmark$1\$" -test.benchtime 1x -test.count "$runs") |
        awk '$1 ~ /^Benchmark/ {print $3}' | sort -g | head -n 1
}

# min A B -> the smaller of two numbers (A may be empty).
min() {
    awk -v a="$1" -v b="$2" 'BEGIN{print (a == "" || b + 0 < a + 0) ? b : a}'
}

status=0

# gate ON OFF
gate() {
    best_on=
    best_off=
    i=0
    while [ "$i" -lt $((rounds * batches)) ]; do
        off=$(bench "$2")
        on=$(bench "$1")
        if [ -z "$off" ] || [ -z "$on" ]; then
            echo "overheadgate: $1/$2 produced no ns/op" >&2
            status=1
            return
        fi
        best_off=$(min "$best_off" "$off")
        best_on=$(min "$best_on" "$on")
        i=$((i + 1))
        [ $((i % rounds)) -eq 0 ] || continue
        ratio=$(awk -v a="$best_on" -v b="$best_off" 'BEGIN{printf "%.4f", a / b}')
        if awk -v r="$ratio" -v m="$bound" 'BEGIN{exit !(r <= m)}'; then
            echo "overheadgate: $1/$2 best-of-$i ratio $ratio <= $bound ($best_on / $best_off ns/op)"
            return
        fi
        echo "overheadgate: $1/$2 best-of-$i ratio $ratio exceeds $bound ($best_on / $best_off ns/op)" >&2
    done
    status=1
}

gate TelemetryCellOn TelemetryCellOff
gate TelemetryOverheadSampledOn TelemetryOverheadSampledOff
exit $status
