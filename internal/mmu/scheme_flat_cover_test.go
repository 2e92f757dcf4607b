package mmu

import (
	"strings"
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/segment"
)

// TestSamplerObservesEveryWalker attaches a period-1 sampler to each
// walker wrapper (1D, 2D, flat) and checks the one cold walk yields one
// sample whose reference and cycle costs equal the MMU's own counters.
func TestSamplerObservesEveryWalker(t *testing.T) {
	cases := []struct {
		name     string
		wire     func(e *env)
		wantRefs uint64
	}{
		{"native-1D", func(e *env) { e.m.SetNestedPageTable(nil) }, 4},
		{"base-2D", func(e *env) {}, 24},
		{"flat", func(e *env) {
			e.m.SetFlatNested(true)
			if !e.m.FlatNested() {
				t.Fatal("FlatNested() false after SetFlatNested(true)")
			}
		}, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, 16, coldConfig())
			e.mapGuest(t, 0x400000, 0x800000, 4)
			tc.wire(e)
			s := sampleEverything(e.m)
			if _, fault := e.m.Translate(0x400123); fault != nil {
				t.Fatal(fault)
			}
			if s.Len() != 1 {
				t.Fatalf("sampler recorded %d walks, want 1", s.Len())
			}
			st, got := e.m.Stats(), s.Samples()[0]
			if st.WalkMemRefs != tc.wantRefs {
				t.Errorf("walk made %d refs, want %d", st.WalkMemRefs, tc.wantRefs)
			}
			if got.Refs != st.WalkMemRefs || got.Cycles != st.WalkCycles {
				t.Errorf("sample refs/cycles = %d/%d, Stats %d/%d",
					got.Refs, got.Cycles, st.WalkMemRefs, st.WalkCycles)
			}
		})
	}
}

// TestFlatWalkWithCaches runs the flat walker on default hardware (PWC
// and nested TLB on): repeated walks through one table must get cheaper
// as the PWC fills, and translation must stay correct.
func TestFlatWalkWithCaches(t *testing.T) {
	e := newEnv(t, 16, Config{})
	e.mapGuest(t, 0x400000, 0x800000, 16)
	e.m.SetFlatNested(true)
	res, fault := e.m.Translate(0x400123)
	if fault != nil {
		t.Fatal(fault)
	}
	if res.HPA != e.hostBase+0x800123 {
		t.Errorf("hPA = %#x, want %#x", res.HPA, e.hostBase+0x800123)
	}
	cold := e.m.Stats().WalkMemRefs
	// A sibling page in the same gL1 table: the PWC skips the flattened
	// interior levels, so the second walk references strictly less.
	if _, fault := e.m.Translate(0x401123); fault != nil {
		t.Fatal(fault)
	}
	warm := e.m.Stats().WalkMemRefs - cold
	if warm >= cold {
		t.Errorf("warm flat walk made %d refs, cold made %d — PWC not used", warm, cold)
	}
}

// TestFlatWalkFaultsWhereBaseWould pins the fault contract: a guest
// table page the nested dimension no longer maps faults the flat walk
// with the same nested-fault address the base 2D walk reports, both for
// flattened interior levels and for the gL1 entry read.
func TestFlatWalkFaultsWhereBaseWould(t *testing.T) {
	for _, lvl := range []struct {
		name     string
		interior bool
	}{{"interior-flattened", true}, {"gL1-nested", false}} {
		t.Run(lvl.name, func(t *testing.T) {
			e := newEnv(t, 16, coldConfig())
			e.mapGuest(t, 0x400000, 0x800000, 4)
			// Locate the guest table pages the walk references.
			refs, _ := func() ([]uint64, bool) {
				pa, _, rr, ok := e.gPT.WalkFrom(0x400123, 0, nil)
				_ = pa
				var addrs []uint64
				for _, r := range rr {
					if (r.Level < addr.LvlPT) == lvl.interior {
						addrs = append(addrs, r.Addr)
					}
				}
				return addrs, ok
			}()
			if len(refs) == 0 {
				t.Fatal("walk recorded no references at the target levels")
			}
			tablePage := refs[0] &^ (addr.PageSize4K - 1)
			if err := e.nPT.Unmap(tablePage, addr.Page4K); err != nil {
				t.Fatal(err)
			}
			e.m.SetFlatNested(true)
			e.m.FlushTLBs()
			_, fault := e.m.Translate(0x400123)
			if fault == nil || fault.Kind != FaultNested {
				t.Fatalf("fault = %v, want nested fault", fault)
			}
			if !strings.Contains(fault.Error(), "nested") {
				t.Errorf("fault.Error() = %q, want nested wording", fault.Error())
			}
		})
	}
}

// TestFlatComposesWithGuestSegment drives the flat walker with guest
// segment registers programmed: covered accesses take the segment fast
// path, escaped pages fall back to the flattened walk, and the scheme
// stays FlatNested throughout.
func TestFlatComposesWithGuestSegment(t *testing.T) {
	e := newEnv(t, 16, coldConfig())
	e.m.SetGuestSegment(segment.NewRegisters(0x400000, 0x800000, 2<<20))
	e.m.SetFlatNested(true)
	if e.m.Mode() != ModeFlatNested {
		t.Fatalf("mode = %v, want FlatNested", e.m.Mode())
	}
	res, fault := e.m.Translate(0x400123)
	if fault != nil {
		t.Fatal(fault)
	}
	if res.HPA != e.hostBase+0x800123 {
		t.Errorf("covered hPA = %#x, want %#x", res.HPA, e.hostBase+0x800123)
	}
	st := e.m.Stats()
	if st.GuestSegHits != 1 || st.SegmentChecks == 0 {
		t.Errorf("segment fast path not taken: %+v", st)
	}
	if st.WalkMemRefs != 4 {
		t.Errorf("covered access made %d refs, want 4 (nested only)", st.WalkMemRefs)
	}

	// A page escaped through the guest filter walks flat instead.
	escVA := uint64(0x400000 + addr.PageSize4K)
	e.mapGuest(t, escVA, 0x900000, 1)
	e.m.GuestEscapeFilter().Insert(escVA >> addr.PageShift4K)
	e.m.FlushTLBs()
	before := e.m.Stats().WalkMemRefs
	if _, fault := e.m.Translate(escVA | 0x123); fault != nil {
		t.Fatal(fault)
	}
	st = e.m.Stats()
	if st.EscapeTaken == 0 {
		t.Error("escape filter did not fire")
	}
	if st.WalkMemRefs-before != 12 {
		t.Errorf("escaped access made %d refs, want the full flat 12", st.WalkMemRefs-before)
	}
}

// TestFlatWalkCostSegmentForms pins the flat scheme's closed-form cost
// in every segment composition, including forms no fixed-register
// scheme reaches (the identity-pinned six have their registers implied
// by their names; FlatNested composes freely).
func TestFlatWalkCostSegmentForms(t *testing.T) {
	s, err := SchemeByName("FlatNested")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   CostInput
		want WalkCost
	}{
		{"uncovered", CostInput{GuestLevels: 4, NestedLevels: 4}, WalkCost{Refs: 12}},
		{"2M-guest", CostInput{GuestLevels: 3, NestedLevels: 4}, WalkCost{Refs: 7}},
		{"dual-covered", CostInput{GuestLevels: 4, NestedLevels: 4,
			GuestCovered: true, VMMCovered: true,
			GuestSegEnabled: true, VMMSegEnabled: true}, WalkCost{Checks: 1}},
		{"guest-covered-no-vmm", CostInput{GuestLevels: 4, NestedLevels: 4,
			GuestCovered: true, GuestSegEnabled: true}, WalkCost{Refs: 4, Checks: 1}},
		{"guest-covered-vmm-on", CostInput{GuestLevels: 4, NestedLevels: 4,
			GuestCovered: true, GuestSegEnabled: true, VMMSegEnabled: true},
			WalkCost{Checks: 2}},
		{"uncovered-vmm-on", CostInput{GuestLevels: 4, NestedLevels: 4,
			VMMSegEnabled: true}, WalkCost{Refs: 4, Checks: 2}},
	}
	for _, tc := range cases {
		if got := s.WalkCost(tc.in); got != tc.want {
			t.Errorf("%s: WalkCost = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestFlatTranslateMissL2Hit evicts a composite entry from the L1 by
// touching many pages and checks the flat scheme's miss path resolves
// it from the shared L2 without walking again.
func TestFlatTranslateMissL2Hit(t *testing.T) {
	e := newEnv(t, 16, coldConfig())
	const pages = 256
	e.mapGuest(t, 0x400000, 0x800000, pages)
	e.m.SetFlatNested(true)
	for p := uint64(0); p < pages; p++ {
		if _, fault := e.m.Translate(0x400000 + p*addr.PageSize4K); fault != nil {
			t.Fatal(fault)
		}
	}
	walks := e.m.Stats().Walks
	if _, fault := e.m.Translate(0x400000); fault != nil {
		t.Fatal(fault)
	}
	st := e.m.Stats()
	if st.L2Hits == 0 {
		t.Error("re-translation after L1 eviction did not hit the L2")
	}
	if st.Walks != walks {
		t.Errorf("re-translation walked (%d → %d walks), want L2 resolution", walks, st.Walks)
	}
}
