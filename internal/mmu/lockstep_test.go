package mmu

import (
	"reflect"
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/telemetry/walkprof"
)

// lockstepSide is one of the two twins of TestObservedMatchesUnobserved:
// a Base Virtualized MMU, observed (a period-1 sampler) or not.
type lockstepSide struct {
	e *env
	s *walkprof.Sampler
}

func newLockstepSide(t *testing.T, observed bool) *lockstepSide {
	t.Helper()
	side := &lockstepSide{e: newEnv(t, 16, Config{})}
	if observed {
		side.s = sampleEverything(side.e.m)
	}
	return side
}

// TestObservedMatchesUnobserved drives two identical Base Virtualized
// MMUs in lockstep, one with a sampler attached and one without, and
// requires identical results, faults and Stats after every access:
// observation must not change which code runs or what it computes. The
// sweep covers L1 hits, L2 hits, cold and warm 2D walks, a guest fault,
// a final-gPA nested fault, table-reference nested faults with the
// guest walk cache warm and cold (both refund a sampled tick), the
// nested skip clamp, and guest 2M leaves.
func TestObservedMatchesUnobserved(t *testing.T) {
	sides := [2]*lockstepSide{newLockstepSide(t, true), newLockstepSide(t, false)}
	both := func(f func(e *env) error) {
		t.Helper()
		for _, side := range sides {
			if err := f(side.e); err != nil {
				t.Fatal(err)
			}
		}
	}
	// access translates gva on both sides and returns the (shared) fault.
	access := func(gva uint64) *Fault {
		t.Helper()
		or, of := sides[0].e.m.Translate(gva)
		ur, uf := sides[1].e.m.Translate(gva)
		if or != ur || !reflect.DeepEqual(of, uf) {
			t.Fatalf("gva %#x: observed (%+v, %v), unobserved (%+v, %v)", gva, or, of, ur, uf)
		}
		if ost, ust := sides[0].e.m.Stats(), sides[1].e.m.Stats(); ost != ust {
			t.Fatalf("gva %#x: stats diverge:\nobserved:   %+v\nunobserved: %+v", gva, ost, ust)
		}
		return of
	}
	mustResolve := func(gvas ...uint64) {
		t.Helper()
		for _, gva := range gvas {
			if f := access(gva); f != nil {
				t.Fatalf("gva %#x: unexpected fault %v", gva, f)
			}
		}
	}
	mustFault := func(gva uint64, kind FaultKind) *Fault {
		t.Helper()
		f := access(gva)
		if f == nil || f.Kind != kind {
			t.Fatalf("gva %#x: fault %v, want kind %d", gva, f, kind)
		}
		return f
	}
	// ptNode returns the gPA page of the guest PT node holding gva's
	// entry, via a walk of an unmapped sibling so the guest walk cache
	// stays as it was.
	ptNode := func(sibling uint64) uint64 {
		t.Helper()
		_, _, refs, ok := sides[0].e.gPT.WalkFrom(sibling, 0, nil)
		if ok || len(refs) != 4 {
			t.Fatalf("sibling walk of %#x: ok=%v refs=%d, want an absent 4K leaf", sibling, ok, len(refs))
		}
		return refs[3].Addr &^ (addr.PageSize4K - 1)
	}

	// Warm-up sweep: 160 pages overflow the 64-entry L1 but fit the L2,
	// so the second pass resolves on L2 hits; repeats hit the L1.
	both(func(e *env) error { e.mapGuest(t, 0x400000, 0x800000, 160); return nil })
	for pass := 0; pass < 2; pass++ {
		for p := uint64(0); p < 160; p++ {
			mustResolve(0x400000+p<<12+p*8, 0x400000+p<<12)
		}
	}

	// Guest fault: unmapped gVA, serviced, retried.
	mustFault(0x9F0000, FaultGuest)
	both(func(e *env) error { return e.gPT.Map(0x9F0000, 0xB00000, addr.Page4K) })
	mustResolve(0x9F0010)

	// Final-gPA nested fault: the guest walk succeeds, the gPA lies past
	// the nested backing.
	both(func(e *env) error { return e.gPT.Map(0x700000, 0x2000000, addr.Page4K) })
	if f := mustFault(0x700008, FaultNested); f.Addr != 0x2000008 {
		t.Fatalf("final-gPA fault at %#x, want 0x2000008", f.Addr)
	}
	both(func(e *env) error { return e.nPT.Map(0x2000000, 0x3000000, addr.Page4K) })
	mustResolve(0x700008)

	// Table-reference nested fault, guest walk cache warm: the VMM pulls
	// the nested mapping of a walked PT node.
	node := ptNode(0x4A0000)
	both(func(e *env) error {
		e.m.InvalidateNested()
		return e.nPT.Unmap(node, addr.Page4K)
	})
	if f := mustFault(0x401000, FaultNested); f.Addr&^(addr.PageSize4K-1) != node {
		t.Fatalf("table-ref fault at %#x, want in node %#x", f.Addr, node)
	}
	both(func(e *env) error { return e.nPT.Map(node, e.hostBase+node, addr.Page4K) })
	mustResolve(0x401000, 0x402000)

	// Table-reference nested fault, guest walk cache cold: a fresh 2M
	// region whose new PT node was never walked to a leaf.
	both(func(e *env) error { e.mapGuest(t, 0xC00000, 0xA00000, 4); return nil })
	cold := ptNode(0xC10000)
	both(func(e *env) error {
		e.m.InvalidateNested()
		return e.nPT.Unmap(cold, addr.Page4K)
	})
	mustFault(0xC00000, FaultNested)
	both(func(e *env) error { return e.nPT.Map(cold, e.hostBase+cold, addr.Page4K) })
	mustResolve(0xC00000, 0xC01000)

	// Nested 2M leaf: the VMM repacks gPA 0x800000's 2M block as one
	// nested 2M page with the nested PWC still warm from 4K walks (the
	// skip clamp), then fresh gVAs land in the block's unwalked pages.
	mustResolve(0x403000) // re-warm the nested PDE cache for the block
	both(func(e *env) error {
		for off := uint64(0); off < addr.PageSize2M; off += addr.PageSize4K {
			if err := e.nPT.Unmap(0x800000+off, addr.Page4K); err != nil {
				return err
			}
		}
		if err := e.nPT.Map(0x800000, 0x40000000, addr.Page2M); err != nil {
			return err
		}
		e.mapGuest(t, 0x500000, 0x900000, 8)
		return nil
	})
	for p := uint64(0); p < 8; p++ {
		mustResolve(0x500000 + p<<12 + 0x10)
	}

	// Guest 2M leaves over a nested 4K backing (4K composite) and over
	// the nested 2M page (2M composite in the L1).
	both(func(e *env) error {
		if err := e.gPT.Map(0x40000000, 0xE00000, addr.Page2M); err != nil {
			return err
		}
		return e.gPT.Map(0x40200000, 0x800000, addr.Page2M)
	})
	mustResolve(0x40000008, 0x40001008, 0x40200008, 0x40300008, 0x40200010)

	st := sides[0].e.m.Stats()
	if st.GuestFaults != 1 || st.NestedFaults != 3 || st.L2Hits == 0 {
		t.Fatalf("sweep missed a path: %+v", st)
	}
	if n := sides[0].s.Len(); uint64(n) != st.L2Hits+st.Walks-st.GuestFaults-st.NestedFaults {
		t.Fatalf("%d samples for %d L2 hits and %d completed walks", n, st.L2Hits, st.Walks-st.GuestFaults-st.NestedFaults)
	}
}
