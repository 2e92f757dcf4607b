package mmu

import (
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/pagetable"
	"vdirect/internal/segment"
	"vdirect/internal/trace"
)

func TestSchemeRegistryUnknownName(t *testing.T) {
	if _, err := SchemeByName("NoSuchScheme"); err == nil {
		t.Fatal("SchemeByName accepted an unregistered name")
	}
	if s, err := SchemeByName("FlatNested"); err != nil || s.Name() != ModeFlatNested {
		t.Fatalf("SchemeByName(FlatNested) = %v, %v", s, err)
	}
}

func TestSchemeRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering an existing scheme name did not panic")
		}
	}()
	RegisterScheme(nativeScheme{})
}

func TestSchemeNames(t *testing.T) {
	names := SchemeNames()
	want := map[string]bool{
		"Native": true, "DirectSegment": true, "BaseVirtualized": true,
		"DualDirect": true, "VMMDirect": true, "GuestDirect": true,
		"FlatNested": true,
	}
	if len(names) != len(want) {
		t.Fatalf("SchemeNames() = %v, want the %d known schemes", names, len(want))
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected scheme %q", n)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("SchemeNames() not sorted: %v", names)
		}
	}
	if ss := Schemes(); len(ss) != len(names) {
		t.Fatalf("Schemes() returned %d schemes", len(ss))
	}
}

// schemeFixture programs a fresh environment into one scheme and names
// the probe addresses the conformance checks drive through it.
type schemeFixture struct {
	// build programs the scheme on an env with the given hardware
	// configuration (the conformance suite passes coldConfig).
	build func(t *testing.T, cfg Config) *env
	// uncovered is a gVA mapped 4K by the guest page table, outside any
	// guest segment — it exercises the scheme's walk machine.
	uncovered uint64
	// covered is a gVA inside the guest segment (0: scheme has none).
	covered uint64
	// vmmCovers reports whether the fixture's VMM segment covers the
	// walk's guest physical addresses.
	vmmCovers bool
	// faultVA is an unmapped gVA outside all segments.
	faultVA uint64
}

// conformanceFixtures must cover exactly the registered schemes; the
// suite (and scripts/check.sh's exhaustiveness lint) fails when a
// newly registered scheme has no fixture here.
var conformanceFixtures = map[Mode]schemeFixture{
	ModeNative: {
		build: func(t *testing.T, cfg Config) *env {
			e := newEnv(t, 16, cfg)
			e.m.SetNestedPageTable(nil)
			e.mapGuest(t, 0x400000, 0x800000, 4)
			return e
		},
		uncovered: 0x400123,
		faultVA:   0xA00000,
	},
	ModeDirectSegment: {
		build: func(t *testing.T, cfg Config) *env {
			e := newEnv(t, 16, cfg)
			e.m.SetNestedPageTable(nil)
			e.m.SetGuestSegment(segment.NewRegisters(0x400000, 0x800000, 2<<20))
			e.mapGuest(t, 0x900000, 0x880000, 4)
			return e
		},
		uncovered: 0x900123,
		covered:   0x400123,
		faultVA:   0xA00000,
	},
	ModeBaseVirtualized: {
		build: func(t *testing.T, cfg Config) *env {
			e := newEnv(t, 16, cfg)
			e.mapGuest(t, 0x400000, 0x800000, 4)
			return e
		},
		uncovered: 0x400123,
		faultVA:   0xA00000,
	},
	ModeDualDirect: {
		build: func(t *testing.T, cfg Config) *env {
			e := newEnv(t, 16, cfg)
			e.m.SetGuestSegment(segment.NewRegisters(0x400000, 0x800000, 2<<20))
			e.m.SetVMMSegment(segment.NewRegisters(0, e.hostBase, e.guestSize))
			e.mapGuest(t, 0x900000, 0x880000, 4)
			return e
		},
		uncovered: 0x900123,
		covered:   0x400123,
		vmmCovers: true,
		faultVA:   0xA00000,
	},
	ModeVMMDirect: {
		build: func(t *testing.T, cfg Config) *env {
			e := newEnv(t, 16, cfg)
			e.m.SetVMMSegment(segment.NewRegisters(0, e.hostBase, e.guestSize))
			e.mapGuest(t, 0x400000, 0x800000, 4)
			return e
		},
		uncovered: 0x400123,
		vmmCovers: true,
		faultVA:   0xA00000,
	},
	ModeGuestDirect: {
		build: func(t *testing.T, cfg Config) *env {
			e := newEnv(t, 16, cfg)
			e.m.SetGuestSegment(segment.NewRegisters(0x400000, 0x800000, 2<<20))
			e.mapGuest(t, 0x900000, 0x880000, 4)
			return e
		},
		uncovered: 0x900123,
		covered:   0x400123,
		faultVA:   0xA00000,
	},
	ModeFlatNested: {
		build: func(t *testing.T, cfg Config) *env {
			e := newEnv(t, 16, cfg)
			e.m.SetFlatNested(true)
			e.mapGuest(t, 0x400000, 0x800000, 4)
			return e
		},
		uncovered: 0x400123,
		faultVA:   0xA00000,
	},
}

// TestSchemeConformance is the suite every registered scheme must
// pass: identity and requirements consistency, the closed-form cost
// table against measured walk counts, the stats identities, the
// TranslateBlock fault-index contract, and ASID flush semantics per
// the scheme's key template.
func TestSchemeConformance(t *testing.T) {
	for _, name := range SchemeNames() {
		if _, ok := conformanceFixtures[Mode(name)]; !ok {
			t.Fatalf("registered scheme %q has no conformance fixture; add one to conformanceFixtures", name)
		}
	}
	for mode, fx := range conformanceFixtures {
		t.Run(string(mode), func(t *testing.T) {
			scheme, err := SchemeByName(string(mode))
			if err != nil {
				t.Fatal(err)
			}
			t.Run("identity", func(t *testing.T) { checkSchemeIdentity(t, scheme, fx) })
			t.Run("cost", func(t *testing.T) { checkSchemeCost(t, scheme, fx) })
			t.Run("statsIdentities", func(t *testing.T) { checkSchemeStats(t, scheme, fx) })
			t.Run("faultIndex", func(t *testing.T) { checkSchemeFaultIndex(t, fx) })
			t.Run("asidFlush", func(t *testing.T) { checkSchemeASID(t, scheme, fx) })
		})
	}
}

func checkSchemeIdentity(t *testing.T, s Scheme, fx schemeFixture) {
	e := fx.build(t, coldConfig())
	if e.m.Mode() != s.Name() {
		t.Fatalf("fixture selects mode %v, want %v", e.m.Mode(), s.Name())
	}
	if e.m.ActiveScheme() != s {
		t.Fatal("ActiveScheme is not the registered singleton")
	}
	if s.Name().Virtualized() != s.Virtualized() {
		t.Error("Mode.Virtualized disagrees with Scheme.Virtualized")
	}
	req := s.Requirements()
	if req.Virtualized != s.Virtualized() {
		t.Errorf("Requirements.Virtualized = %v, scheme says %v", req.Virtualized, s.Virtualized())
	}
	if req.GuestSegment != e.m.GuestSegment().Enabled() && fx.covered != 0 {
		t.Error("fixture guest segment disagrees with Requirements")
	}
	if !s.Keys().GuestASIDTagged {
		t.Error("all current schemes key guest translations by ASID")
	}
	if s.Keys().NestedShared != s.Virtualized() {
		t.Error("nested entries are shared exactly for virtualized schemes")
	}
}

// checkSchemeCost validates the scheme's closed-form cost-table entry
// against measured reference and check counts on a cold, strict
// configuration — the same numbers internal/oracle pins per walk.
func checkSchemeCost(t *testing.T, s Scheme, fx schemeFixture) {
	probe := func(va uint64, covered bool) {
		e := fx.build(t, coldConfig())
		in := CostInput{
			GuestLevels:     4,
			NestedLevels:    4,
			GuestCovered:    covered,
			VMMCovered:      fx.vmmCovers,
			GuestSegEnabled: e.m.GuestSegment().Enabled(),
			VMMSegEnabled:   e.m.VMMSegment().Enabled(),
		}
		want := s.WalkCost(in)
		st0 := e.m.Stats()
		if _, fault := e.m.Translate(va); fault != nil {
			t.Fatalf("va %#x: %v", va, fault)
		}
		st := e.m.Stats()
		if refs := st.WalkMemRefs - st0.WalkMemRefs; refs != want.Refs {
			t.Errorf("va %#x: %d refs, cost table says %d", va, refs, want.Refs)
		}
		if checks := st.SegmentChecks - st0.SegmentChecks; checks != want.Checks {
			t.Errorf("va %#x: %d checks, cost table says %d", va, checks, want.Checks)
		}
	}
	probe(fx.uncovered, false)
	if fx.covered != 0 {
		probe(fx.covered, true)
	}
}

// checkSchemeStats drives a mixed access pattern and holds the
// scheme to the global stat identities, bounding walk references by
// the scheme's own worst-case cost entry.
func checkSchemeStats(t *testing.T, s Scheme, fx schemeFixture) {
	e := fx.build(t, coldConfig())
	vas := []uint64{fx.uncovered, fx.uncovered, fx.uncovered + 0x1000, fx.uncovered}
	if fx.covered != 0 {
		vas = append(vas, fx.covered, fx.covered+0x2000, fx.covered)
	}
	for i := 0; i < 3; i++ {
		for _, va := range vas {
			if _, fault := e.m.Translate(va); fault != nil {
				t.Fatalf("va %#x: %v", va, fault)
			}
		}
	}
	st := e.m.Stats()
	if st.Accesses != st.L1Hits+st.L1Misses {
		t.Errorf("accesses %d != L1 hits %d + misses %d", st.Accesses, st.L1Hits, st.L1Misses)
	}
	if st.L1Misses != st.ZeroDWalks+st.L2Hits+st.Walks {
		t.Errorf("L1 misses %d != 0D %d + L2 hits %d + walks %d",
			st.L1Misses, st.ZeroDWalks, st.L2Hits, st.Walks)
	}
	worst := s.WalkCost(CostInput{
		GuestLevels:     4,
		NestedLevels:    4,
		GuestSegEnabled: e.m.GuestSegment().Enabled(),
		VMMSegEnabled:   e.m.VMMSegment().Enabled(),
	})
	if st.WalkMemRefs > st.Walks*worst.Refs {
		t.Errorf("%d refs over %d walks exceeds the scheme's worst case %d/walk",
			st.WalkMemRefs, st.Walks, worst.Refs)
	}
	if st.EscapeTaken > st.EscapeProbes {
		t.Errorf("escape taken %d > probes %d", st.EscapeTaken, st.EscapeProbes)
	}
	if st.GuestFaults != 0 || st.NestedFaults != 0 {
		t.Errorf("unexpected faults: %+v", st)
	}
}

// checkSchemeFaultIndex pins the TranslateBlock contract: the return
// value is the faulting event's index, the faulting access is counted,
// and the block resumes from that index after the fault is serviced.
func checkSchemeFaultIndex(t *testing.T, fx schemeFixture) {
	e := fx.build(t, coldConfig())
	vas := []uint64{fx.uncovered, fx.uncovered + 0x1000, fx.faultVA, fx.uncovered}
	evs := make([]trace.Event, len(vas))
	for i, va := range vas {
		evs[i] = trace.Event{Kind: trace.Access, VA: addr.GVA(va)}
	}
	out := make([]Result, len(evs))
	n, fault := e.m.TranslateBlock(evs, out)
	if fault == nil || n != 2 {
		t.Fatalf("TranslateBlock = %d, %v; want fault at index 2", n, fault)
	}
	if fault.Kind != FaultGuest || fault.Addr != fx.faultVA {
		t.Fatalf("fault = %+v, want guest fault at %#x", fault, fx.faultVA)
	}
	if got := e.m.Stats().Accesses; got != 3 {
		t.Errorf("accesses after fault = %d, want 3 (the faulting access counts)", got)
	}
	if err := e.gPT.Map(fx.faultVA, 0x700000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	n, fault = e.m.TranslateBlock(evs[2:], out[2:])
	if fault != nil || n != 2 {
		t.Fatalf("resume = %d, %v; want 2, nil", n, fault)
	}
	if got := e.m.Stats().Accesses; got != 5 {
		t.Errorf("accesses after resume = %d, want 5", got)
	}
}

// checkSchemeASID pins the key-template semantics: tagged guest
// entries survive a switch away and back, and FlushASID of the active
// tag forces the next access off the L1 path.
func checkSchemeASID(t *testing.T, s Scheme, fx schemeFixture) {
	if !s.Keys().GuestASIDTagged {
		t.Skip("scheme does not tag guest entries")
	}
	e := fx.build(t, coldConfig())
	seg := e.m.GuestSegment()
	e.m.ContextSwitchASID(e.gPT, seg, 1)
	if _, fault := e.m.Translate(fx.uncovered); fault != nil {
		t.Fatal(fault)
	}
	// Switch away (empty address space) and back: the entry must hit.
	other, err := pagetable.New(e.guestMem)
	if err != nil {
		t.Fatal(err)
	}
	e.m.ContextSwitchASID(other, segment.Disabled(), 2)
	e.m.ContextSwitchASID(e.gPT, seg, 1)
	st0 := e.m.Stats()
	if _, fault := e.m.Translate(fx.uncovered); fault != nil {
		t.Fatal(fault)
	}
	if hits := e.m.Stats().L1Hits - st0.L1Hits; hits != 1 {
		t.Errorf("tagged entry did not survive the round-trip switch (L1 hits +%d)", hits)
	}
	// Flushing the active ASID must force the next access off the L1.
	e.m.FlushASID(1)
	st0 = e.m.Stats()
	if _, fault := e.m.Translate(fx.uncovered); fault != nil {
		t.Fatal(fault)
	}
	if hits := e.m.Stats().L1Hits - st0.L1Hits; hits != 0 {
		t.Errorf("entry survived FlushASID of its own tag (L1 hits +%d)", hits)
	}
}
