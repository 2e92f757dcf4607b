#!/usr/bin/env sh
# The repo's check gate. The experiment harness is concurrent (see
# internal/sched), so the race detector runs on every change: any
# shared mutable state between simulation cells is a bug. The replay
# equivalence suite additionally pins the block streaming path to the
# per-event shim — byte-identical Result/Stats — before the full tests.
# overheadgate.sh then holds observation to its bound: a full gups
# cell with a telemetry run active, and with 1-in-64 walk sampling, must
# each stay within 3% of the same cell unobserved (best-of-7 On/Off
# ratio, interleaved, one test binary).
# samplecheck.sh then asserts observation does not perturb the
# experiment: the full medium paperbench report is byte-identical with
# 1-in-64 walk sampling on and off, and cmd/walkprof round-trips the
# collected sample file. hostcheck.sh does the same for scheduling:
# the whole-host consolidation sweep (stdout and sample file) is
# byte-identical across -j {1,8} x -shards {1,4}.
# The scheme exhaustiveness lint and conformance suite run first: every
# Mode constant in internal/mmu/scheme.go must have a fixture in the
# conformance suite, and every registered scheme must pass it, before
# anything expensive starts. The differential-oracle seeds (and the
# minimized fuzz corpora under testdata/) come next: any translation or
# walk-cost divergence between the production stack and
# internal/oracle's reference model fails fast, before the long suites.
# covergate.sh then holds the translation-critical packages to their
# recorded statement-coverage floors, and benchgate.sh holds the
# cell-throughput, TLB-probe, sampled-cell and host-quantum benchmarks
# to within 10% of the base revision's, measured side by side on this
# machine.
set -eu
cd "$(dirname "$0")/.."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Exhaustiveness lint: a scheme constant without a conformance fixture
# means a registered scheme the suite never exercises. The suite itself
# catches schemes registered under new names at runtime; this catches
# the constant-declared ones without running any Go.
for mode in $(sed -n 's/^\t\(Mode[A-Za-z0-9]*\)[ \t]*Mode = .*/\1/p' internal/mmu/scheme.go); do
    if ! grep -q "^[[:space:]]*$mode: {" internal/mmu/scheme_test.go; then
        echo "check: $mode has no conformanceFixtures entry in internal/mmu/scheme_test.go" >&2
        exit 1
    fi
done

set -x
go vet ./...
go build ./...
go test -run 'TestSchemeConformance|TestSchemeRegistry' ./internal/mmu/
go test -race ./internal/oracle/...
go test -run Equivalence -race ./internal/replay/...
go test -race ./...
sh scripts/overheadgate.sh
sh scripts/samplecheck.sh
sh scripts/hostcheck.sh
sh scripts/covergate.sh
sh scripts/benchgate.sh
