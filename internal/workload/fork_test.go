package workload

import (
	"reflect"
	"testing"

	"vdirect/internal/trace"
)

// drainNext reads a workload to the end one event at a time.
func drainNext(w Workload) []trace.Event {
	var evs []trace.Event
	for {
		ev, ok := w.Next()
		if !ok {
			return evs
		}
		evs = append(evs, ev)
	}
}

// TestForksReplayTheUnforkedStream: two forks of one trace, read in
// interleaved NextBlock chunks of different sizes, each yield exactly
// the event stream of an unforked instance; a Reset on one fork
// rewinds only that fork; and the forks report the same metadata. The
// sizing is the experiments package's Small scale.
func TestForksReplayTheUnforkedStream(t *testing.T) {
	cfg := Config{Seed: 1, MemoryMB: 24, Ops: 50000}
	for _, name := range Names() {
		want := drainNext(New(name, cfg))
		parent := New(name, cfg)
		parent.Next() // a fork is rewound whatever its parent's cursor
		a := parent.Fork().(trace.BlockGenerator)
		b := parent.Fork().(trace.BlockGenerator)
		bufA, bufB := make([]trace.Event, 97), make([]trace.Event, 256)
		var gotA, gotB []trace.Event
		for round := 0; ; round++ {
			na, nb := a.NextBlock(bufA), b.NextBlock(bufB)
			gotA = append(gotA, bufA[:na]...)
			gotB = append(gotB, bufB[:nb]...)
			if round == 5 {
				a.Reset()
				gotA = gotA[:0]
			}
			if na == 0 && nb == 0 {
				break
			}
		}
		if !reflect.DeepEqual(gotA, want) {
			t.Errorf("%s: fork reset mid-stream yields %d events, unforked %d, or they differ", name, len(gotA), len(want))
		}
		if !reflect.DeepEqual(gotB, want) {
			t.Errorf("%s: fork read beside a reset fork yields %d events, unforked %d, or they differ", name, len(gotB), len(want))
		}
		if ev, ok := parent.Next(); !ok || ev != want[1] {
			t.Errorf("%s: reading forks moved the parent's cursor", name)
		}
		f := parent.Fork()
		if f.AccessCount() != parent.AccessCount() || f.PrimaryRegion() != parent.PrimaryRegion() ||
			f.WorkingSet() != parent.WorkingSet() || f.Name() != parent.Name() ||
			f.Class() != parent.Class() || f.BaseCPI() != parent.BaseCPI() ||
			!reflect.DeepEqual(f.StaticRegions(), parent.StaticRegions()) {
			t.Errorf("%s: fork metadata differs from its parent", name)
		}
	}
}
