package oracle

import (
	"reflect"
	"strings"
	"testing"

	"vdirect/internal/addr"
)

// TestExpectWalkModeTable pins the closed form to the paper's mode
// table: 24 references for a Base Virtualized 2D walk, 4 for the 1D
// modes with their Δ_VD=5 / Δ_GD=1 check counts, and the native walk
// depths per page size.
func TestExpectWalkModeTable(t *testing.T) {
	walked := Prediction{GuestSize: addr.Page4K}
	covered := Prediction{GuestSize: addr.Page4K, GuestCovered: true}
	cases := []struct {
		name                   string
		p                      Prediction
		guestSeg, vmmSeg, virt bool
		wantRefs, wantChecks   uint64
	}{
		{"base-virtualized-2D", walked, false, false, true, 24, 0},
		{"vmm-direct-1D", walked, false, true, true, 4, 5},
		{"guest-direct-1D", covered, true, false, true, 4, 1},
		{"guest-direct-uncovered", walked, true, false, true, 24, 1},
		{"native-4K", walked, false, false, false, 4, 0},
		{"native-2M", Prediction{GuestSize: addr.Page2M}, false, false, false, 3, 0},
		{"base-2M-guest", Prediction{GuestSize: addr.Page2M}, false, false, true, 19, 0},
		{"vmm-direct-2M-guest", Prediction{GuestSize: addr.Page2M}, false, true, true, 3, 4},
	}
	for _, c := range cases {
		wc := ExpectWalk(c.p, c.guestSeg, c.vmmSeg, c.virt, 4)
		if wc.Refs != c.wantRefs || wc.Checks != c.wantChecks {
			t.Errorf("%s: got refs %d checks %d, want %d/%d", c.name, wc.Refs, wc.Checks, c.wantRefs, c.wantChecks)
		}
		if got := wc.Cycles(10, 1); got != c.wantRefs*10+c.wantChecks {
			t.Errorf("%s: cycles %d", c.name, got)
		}
	}
}

// TestModelTranslate checks the reference model's segment-vs-paging
// priority, escape semantics and fault reporting in isolation.
func TestModelTranslate(t *testing.T) {
	m := NewModel()
	m.Virtualized = true
	m.GuestSeg = Segment{Base: 0x1000, Limit: 0x3000, Offset: 0x10_0000 - 0x1000}
	m.VMMSeg = Segment{Base: 0, Limit: 1 << 24, Offset: 1 << 30}

	// Covered va: segment in both dimensions.
	p := m.Translate(0x1234)
	if p.Fault != FaultNone || p.HPA != 0x10_0234+1<<30 || !p.GuestCovered || !p.VMMCovered {
		t.Fatalf("covered: %+v", p)
	}
	// Uncovered, unmapped: guest fault at the va.
	if p = m.Translate(0x5000); p.Fault != FaultGuest || p.Addr != 0x5000 {
		t.Fatalf("unmapped: %+v", p)
	}
	// Uncovered but mapped: paging path, then VMM segment.
	m.MapGuest(0x5000, 0x20_0000, addr.Page4K)
	if p = m.Translate(0x5678); p.Fault != FaultNone || p.HPA != 0x20_0678+1<<30 {
		t.Fatalf("mapped: %+v", p)
	}
	// Escaped guest page inside the covered range takes paging (and
	// faults when there is no mapping).
	m.EscapedGuest[0x1000>>addr.PageShift4K] = true
	if p = m.Translate(0x1010); p.Fault != FaultGuest || p.Addr != 0x1010 {
		t.Fatalf("escaped guest: %+v", p)
	}
	// Escaped VMM page takes the nested map.
	m.EscapedVMM[0x20_0000>>addr.PageShift4K] = true
	m.MapNested(0x20_0000, 0x7000_0000, addr.Page4K)
	if p = m.Translate(0x5678); p.Fault != FaultNone || p.HPA != 0x7000_0678 || p.VMMCovered {
		t.Fatalf("escaped vmm: %+v", p)
	}
	// Escaped VMM page with no nested mapping: nested fault at the gPA.
	m.UnmapNested(0x20_0000)
	if p = m.Translate(0x5678); p.Fault != FaultNested || p.Addr != 0x20_0678 {
		t.Fatalf("ballooned: %+v", p)
	}
	// Native translation stops at the guest dimension.
	m.Virtualized = false
	if p = m.Translate(0x1234); p.Fault != FaultGuest {
		t.Fatalf("native escaped: %+v", p)
	}
	if p = m.Translate(0x2234); p.Fault != FaultNone || p.HPA != 0x10_1234 {
		t.Fatalf("native covered: %+v", p)
	}
	// 2M mappings expand to every interior 4K page.
	m.MapGuest(0x20_0000, 0x40_0000, addr.Page2M)
	if p = m.Translate(0x2F_F000); p.Fault != FaultNone || p.HPA != 0x4F_F000 || p.GuestSize != addr.Page2M {
		t.Fatalf("2M interior: %+v", p)
	}
}

// TestLevels pins the walk depth per leaf size.
func TestLevels(t *testing.T) {
	for s, want := range map[addr.PageSize]uint64{addr.Page4K: 4, addr.Page2M: 3, addr.Page1G: 2} {
		if got := Levels(s); got != want {
			t.Errorf("Levels(%v) = %d, want %d", s, got, want)
		}
	}
}

// TestHarnessSeeds runs every structured seed through the full
// differential harness: any translation or cost divergence between the
// production stack and the oracle fails here, in plain `go test`,
// before any fuzzing.
func TestHarnessSeeds(t *testing.T) {
	for i, seed := range Seeds() {
		h, err := HarnessForInput(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if err := h.Run(seed); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if len(h.Accesses()) == 0 {
			t.Fatalf("seed %d performed no accesses", i)
		}
	}
}

// TestCoherenceLedgerCatchesSkippedInvalidation: a guest page escapes
// to a fresh frame. When the harness skips the escape's INVLPG, a sweep
// of the paged region evicts the stale entry from both MMUs, so the
// re-access walks to the new frame and agrees with the oracle; only the
// ledger can tell that the page moved without an invalidation. With the
// INVLPG in place the same stream passes.
func TestCoherenceLedgerCatchesSkippedInvalidation(t *testing.T) {
	// Paged 2D translation (VMM segment off, guest segment emptied),
	// then one access to primary-region page 5, demand-paged.
	prefix := []byte{flagPlainOnly, opToggleVMM, opResize, 0, opAccess, 0, 5}
	rest := []byte{flagPlainOnly, opEscGuest, 5}
	for i := 0; i < pagedPages; i++ {
		rest = append(rest, opAccess, byte(2|i>>8<<2), byte(i))
	}
	rest = append(rest, opAccess, 0, 5)
	for _, skip := range []int{0, 1} {
		h, err := NewHarness()
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Run(prefix); err != nil {
			t.Fatal(err)
		}
		h.skipINVLPGs = skip
		err = h.Run(rest)
		switch {
		case skip == 0 && err != nil:
			t.Fatalf("stream with the INVLPG failed: %v", err)
		case skip == 1 && (err == nil || !strings.Contains(err.Error(), "coherence ledger")):
			t.Fatalf("skipped INVLPG not caught by the ledger: %v", err)
		}
	}
}

// TestHarnessDeterministic replays one op stream through two fresh
// harnesses and requires identical end-to-end MMU counters: the whole
// differential stack must be a pure function of the input bytes.
func TestHarnessDeterministic(t *testing.T) {
	var snaps [2][2]interface{}
	for round := 0; round < 2; round++ {
		h, err := NewHarness()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range Seeds() {
			if err := h.Run(seed[1:]); err != nil { // strip flag bytes, one long run
				t.Fatal(err)
			}
		}
		st := h.MMUStats()
		snaps[round][0], snaps[round][1] = st[0], st[1]
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", snaps[0], snaps[1])
	}
}

// TestCheckModeMonotonicity exercises the three-stack replay on a
// fixed trace with locality, repeats and all three regions.
func TestCheckModeMonotonicity(t *testing.T) {
	var vas []uint64
	for i := 0; i < 200; i++ {
		vas = append(vas,
			PrimBase+uint64(i%97)<<addr.PageShift4K+uint64(i*13)%4096,
			PagedBase+uint64(i%31)<<addr.PageShift4K,
			HugeBase+uint64(i%candidatePages)<<addr.PageShift4K,
		)
	}
	if err := CheckModeMonotonicity(vas); err != nil {
		t.Fatal(err)
	}
}

const candidatePages = 64

// TestCheckModeMonotonicityRejectsNonCanonical guards the checker's
// own input validation.
func TestCheckModeMonotonicityRejectsNonCanonical(t *testing.T) {
	if err := CheckModeMonotonicity([]uint64{1 << 50}); err == nil {
		t.Fatal("expected an error for a non-canonical address")
	}
}
