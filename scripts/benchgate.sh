#!/usr/bin/env sh
# Benchmark regression gate for the translation hot path, as a same-host
# A/B: the gated benchmarks are built at the base revision and at HEAD
# and run alternately on this machine, so no recorded number from
# another host is involved. Four benches stand guard:
#
#   BenchmarkCellBlock                   a full gups simulation cell on
#                                        the block path (internal/replay)
#   BenchmarkSetAssocLookupHit           the TLB probe itself (internal/tlb)
#   BenchmarkTelemetryOverheadSampledOn  the same cell with 1-in-64 walk
#                                        sampling (internal/replay)
#   BenchmarkHostQuantum                 a whole consolidated-host cell
#                                        (internal/host)
#
# The base is `git merge-base HEAD main`, or HEAD~1 when HEAD is main
# itself; both revisions are checked out with `git worktree` in a temp
# dir, so uncommitted edits are not measured. Each round runs one
# process per side, base then HEAD, timing $runs iterations and keeping
# the fastest; the best of each side over all rounds is kept, as in
# overheadgate.sh. A bench passes when best-HEAD / best-base is at most
# 1.10 after 7 rounds; otherwise 7 more rounds run, up to 21, and it
# fails if the ratio still exceeds the bound. Without git history (an
# exported tree, a shallow clone, no main branch) the gate skips with a
# notice.
#
#   sh scripts/benchgate.sh
set -eu
cd "$(dirname "$0")/.."

rounds=7 # per batch
batches=3
runs=5
bound=1.10

if [ "$(git rev-parse --abbrev-ref HEAD 2>/dev/null)" = main ]; then
    base=$(git rev-parse -q --verify 'HEAD~1^{commit}' 2>/dev/null || true)
else
    base=$(git merge-base HEAD main 2>/dev/null || true)
fi
head=$(git rev-parse -q --verify 'HEAD^{commit}' 2>/dev/null || true)
if [ -z "$base" ] || [ -z "$head" ]; then
    echo "benchgate: no base revision in git history; skipping the A/B" >&2
    exit 0
fi

tmp=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tmp/base" 2>/dev/null || true
    git worktree remove --force "$tmp/head" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add -q --detach "$tmp/base" "$base"
git worktree add -q --detach "$tmp/head" "$head"

for side in base head; do
    for pkg in replay tlb host; do
        (cd "$tmp/$side" && go test -c -o "$tmp/$side-$pkg.test" "./internal/$pkg/")
    done
done

# bench SIDE PKG NAME BENCHTIME -> best ns/op of $runs runs in one process.
bench() {
    (cd "$tmp/$1/internal/$2" && "$tmp/$1-$2.test" -test.run '^$' \
        -test.bench "^$3\$" -test.benchtime "$4" -test.count "$runs") |
        awk '$1 ~ /^Benchmark/ {print $3}' | sort -g | head -n 1
}

# min A B -> the smaller of two numbers (A may be empty).
min() {
    awk -v a="$1" -v b="$2" 'BEGIN{print (a == "" || b + 0 < a + 0) ? b : a}'
}

status=0

# gate NAME PKG BENCHTIME
gate() {
    best_base=
    best_head=
    i=0
    while [ "$i" -lt $((rounds * batches)) ]; do
        b=$(bench base "$2" "$1" "$3")
        h=$(bench head "$2" "$1" "$3")
        if [ -z "$b" ]; then
            echo "benchgate: $1 does not run at the base revision; skipped" >&2
            return
        fi
        if [ -z "$h" ]; then
            echo "benchgate: $1 produced no ns/op at HEAD" >&2
            status=1
            return
        fi
        best_base=$(min "$best_base" "$b")
        best_head=$(min "$best_head" "$h")
        i=$((i + 1))
        [ $((i % rounds)) -eq 0 ] || continue
        ratio=$(awk -v h="$best_head" -v b="$best_base" 'BEGIN{printf "%.4f", h / b}')
        if awk -v r="$ratio" -v m="$bound" 'BEGIN{exit !(r <= m)}'; then
            echo "benchgate: $1 best-of-$i HEAD/base $ratio <= $bound ($best_head / $best_base ns/op)"
            return
        fi
        echo "benchgate: $1 best-of-$i HEAD/base $ratio exceeds $bound ($best_head / $best_base ns/op)" >&2
    done
    status=1
}

gate BenchmarkCellBlock replay 1x
gate BenchmarkSetAssocLookupHit tlb 2000000x
gate BenchmarkTelemetryOverheadSampledOn replay 1x
gate BenchmarkHostQuantum host 1x
exit $status
