package mmu

import (
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/segment"
	"vdirect/internal/telemetry/walkprof"
)

// Edge paths of the block loop and the miss paths: mixed page sizes,
// pure last-page tails, mid-walk nested faults on the fused and the
// general 2D walker, the memo oracle's invalidation and verification
// machinery, and the per-scheme L2-hit fast exits.

// TestTranslateBlockLargePageHandover drives a native cell whose guest
// table mixes 4K and 2M leaves through TranslateBlock and checks it
// against per-event Translate on a twin: a block in which a walk
// inserts the first 2M entry mid-block, and a later block with the
// large entry already resident, must both match result for result and
// stat for stat.
func TestTranslateBlockLargePageHandover(t *testing.T) {
	build := func() *env {
		e := newEnv(t, 16, Config{})
		e.m.SetNestedPageTable(nil) // native
		e.mapGuest(t, 0x400000, 0x800000, 2)
		if err := e.gPT.Map(0x40000000, 0x1000000, addr.Page2M); err != nil {
			t.Fatal(err)
		}
		return e
	}
	blk, per := build(), build()

	vas := []uint64{
		0x400010, 0x400020, // 4K page: miss, then last-page hit
		0x40000008,             // 2M page: walk inserts a large entry mid-block
		0x40003000, 0x40003008, // same 2M entry, new 4K page: L1 hit + last-page
		0x401000, // second 4K page: miss with a 2M entry resident
		0x900000, // unmapped: fault mid-block
		0x900010, // resumes after service
		0x400018, // back on the first page
	}
	evs := accessEvents(vas)
	outBlk := make([]Result, len(evs))

	// Per-event reference, with the same demand-fault service.
	outPer := make([]Result, len(evs))
	for i, va := range vas {
		for {
			res, fault := per.m.Translate(va)
			if fault == nil {
				outPer[i] = res
				break
			}
			if fault.Kind != FaultGuest {
				t.Fatalf("per-event: unexpected fault %v", fault)
			}
			if err := per.gPT.Map(fault.Addr&^(addr.PageSize4K-1), 0xC00000, addr.Page4K); err != nil {
				t.Fatal(err)
			}
			per.m.bumpEpoch()
		}
	}

	for i := 0; i < len(evs); {
		n, fault := blk.m.TranslateBlock(evs[i:], outBlk[i:])
		i += n
		if fault == nil {
			continue
		}
		if fault.Kind != FaultGuest {
			t.Fatalf("block: unexpected fault %v", fault)
		}
		if err := blk.gPT.Map(fault.Addr&^(addr.PageSize4K-1), 0xC00000, addr.Page4K); err != nil {
			t.Fatal(err)
		}
		blk.m.bumpEpoch()
	}
	for i := range outBlk {
		if outBlk[i].HPA != outPer[i].HPA || outBlk[i].L1Hit != outPer[i].L1Hit {
			t.Fatalf("event %d: block %+v, per-event %+v", i, outBlk[i], outPer[i])
		}
	}
	if bs, ps := blk.m.Stats(), per.m.Stats(); bs != ps {
		t.Fatalf("stats diverge:\nblock:     %+v\nper-event: %+v", bs, ps)
	}

	// A fresh block with the 2M entry still resident must agree with the
	// reference again.
	vas2 := []uint64{0x400010, 0x40000100, 0x40000108}
	evs2 := accessEvents(vas2)
	out2 := make([]Result, len(evs2))
	if n, fault := blk.m.TranslateBlock(evs2, out2); n != len(evs2) || fault != nil {
		t.Fatalf("resident-large block: n=%d fault=%v", n, fault)
	}
	for i, va := range vas2 {
		res, fault := per.m.Translate(va)
		if fault != nil {
			t.Fatal(fault)
		}
		if out2[i].HPA != res.HPA || out2[i].L1Hit != res.L1Hit {
			t.Fatalf("resident-large event %d: block %+v, per-event %+v", i, out2[i], res)
		}
	}
	if bs, ps := blk.m.Stats(), per.m.Stats(); bs != ps {
		t.Fatalf("resident-large stats diverge:\nblock:     %+v\nper-event: %+v", bs, ps)
	}
}

// TestTranslateBlockLastPageTail: a block whose every event lands on
// the page the previous block ended on probes no TLB and must resolve
// entirely on the last-page cache carried across blocks.
func TestTranslateBlockLastPageTail(t *testing.T) {
	e := newEnv(t, 16, Config{})
	e.mapGuest(t, 0x400000, 0x800000, 1)

	out1 := make([]Result, 1)
	if n, fault := e.m.TranslateBlock(accessEvents([]uint64{0x400000}), out1); n != 1 || fault != nil {
		t.Fatalf("warmup block: n=%d fault=%v", n, fault)
	}
	st0 := e.m.Stats()

	vas := []uint64{0x400008, 0x400010, 0x400018}
	out := make([]Result, len(vas))
	if n, fault := e.m.TranslateBlock(accessEvents(vas), out); n != len(vas) || fault != nil {
		t.Fatalf("tail block: n=%d fault=%v", n, fault)
	}
	for i, va := range vas {
		want := out1[0].HPA&^(addr.PageSize4K-1) + va&(addr.PageSize4K-1)
		if out[i].HPA != want || !out[i].L1Hit {
			t.Fatalf("tail event %d: got %+v, want hPA %#x L1Hit", i, out[i], want)
		}
	}
	st := e.m.Stats()
	if st.Accesses != st0.Accesses+3 || st.L1Hits != st0.L1Hits+3 {
		t.Fatalf("tail block stats: %+v (before %+v)", st, st0)
	}
}

// TestSchemeL2HitFastExit evicts a page from the 64-entry L1 while the
// 512-entry L2 still holds it and checks the miss path resolves on the
// L2 probe in both unvirtualized schemes.
func TestSchemeL2HitFastExit(t *testing.T) {
	for _, mode := range []Mode{ModeNative, ModeDirectSegment} {
		t.Run(string(mode), func(t *testing.T) {
			e := newEnv(t, 16, Config{})
			e.m.SetNestedPageTable(nil)
			if mode == ModeDirectSegment {
				// Segment covers a range far from the probed pages, so
				// every access below exercises the walk/L2 path.
				e.m.SetGuestSegment(segment.NewRegisters(0x10000000, 0x20000000, 2<<20))
			}
			if e.m.Mode() != mode {
				t.Fatalf("mode = %v, want %v", e.m.Mode(), mode)
			}
			e.mapGuest(t, 0x400000, 0x800000, 96)
			for p := uint64(0); p < 96; p++ {
				if _, fault := e.m.Translate(0x400000 + p<<12); fault != nil {
					t.Fatal(fault)
				}
			}
			res, fault := e.m.Translate(0x400000)
			if fault != nil {
				t.Fatal(fault)
			}
			if !res.L2Hit || res.L1Hit {
				t.Fatalf("refill access resolved as %+v, want L2 hit", res)
			}
			if res.HPA != 0x800000 {
				t.Fatalf("hPA = %#x, want 0x800000", res.HPA)
			}
		})
	}
}

// TestSampledWalkFaultRefund: a period-1 sampler must refund the tick
// of a faulting walk (no sample recorded) and record successful walks,
// in the 1D and flattened walk wrappers.
func TestSampledWalkFaultRefund(t *testing.T) {
	t.Run("walk1D", func(t *testing.T) {
		e := newEnv(t, 16, Config{})
		e.m.SetNestedPageTable(nil)
		s := sampleEverything(e.m)
		e.mapGuest(t, 0x400000, 0x800000, 1)
		if _, fault := e.m.Translate(0x900000); fault == nil {
			t.Fatal("unmapped access did not fault")
		}
		if s.Len() != 0 {
			t.Fatalf("faulting walk recorded %d samples", s.Len())
		}
		if _, fault := e.m.Translate(0x400000); fault != nil {
			t.Fatal(fault)
		}
		if s.Len() != 1 || s.Samples()[0].Class != walkprof.ClassWalk1D {
			t.Fatalf("samples after successful walk: %+v", s.Samples())
		}
	})
	t.Run("walkFlat", func(t *testing.T) {
		e := newEnv(t, 16, Config{})
		e.m.SetFlatNested(true)
		s := sampleEverything(e.m)
		e.mapGuest(t, 0x400000, 0x800000, 1)
		if _, fault := e.m.Translate(0x400000); fault != nil {
			t.Fatal(fault)
		}
		if s.Len() != 1 {
			t.Fatalf("samples after successful flat walk: %+v", s.Samples())
		}
		if _, fault := e.m.Translate(0x900000); fault == nil {
			t.Fatal("unmapped access did not fault")
		}
		if s.Len() != 1 {
			t.Fatalf("faulting flat walk recorded a sample: %+v", s.Samples())
		}
	})
}

// TestFusedWalkNestedFaults drives the two nested-fault exits of the
// fused miss path: the final gPA missing from the nested table, and a
// guest-table reference whose nested mapping the VMM pulled.
func TestFusedWalkNestedFaults(t *testing.T) {
	t.Run("final-gpa", func(t *testing.T) {
		e := newEnv(t, 16, Config{})
		// gPA beyond the nested-mapped backing: the guest walk succeeds,
		// the final nested translation faults.
		if err := e.gPT.Map(0x700000, 0x2000000, addr.Page4K); err != nil {
			t.Fatal(err)
		}
		_, fault := e.m.Translate(0x700008)
		if fault == nil || fault.Kind != FaultNested || fault.Addr != 0x2000008 {
			t.Fatalf("fault = %v, want nested at 0x2000008", fault)
		}
		if st := e.m.Stats(); st.NestedFaults != 1 {
			t.Fatalf("NestedFaults = %d, want 1", st.NestedFaults)
		}
	})
	t.Run("table-ref", func(t *testing.T) {
		e := newEnv(t, 16, Config{})
		e.mapGuest(t, 0x400000, 0x800000, 2)
		if _, fault := e.m.Translate(0x400000); fault != nil {
			t.Fatal(fault)
		}
		// Pull the nested mapping under the guest PT-level node, then
		// invalidate nested state as a real VMM unmap would. The walk
		// cache precheck still succeeds (the guest table is intact), so
		// the fault surfaces inside the fast-path reference loop.
		_, _, refs, ok := e.gPT.Walk(0x401000, nil)
		if !ok || len(refs) == 0 {
			t.Fatal("guest walk failed")
		}
		node := refs[len(refs)-1].Addr &^ (addr.PageSize4K - 1)
		if err := e.nPT.Unmap(node, addr.Page4K); err != nil {
			t.Fatal(err)
		}
		e.m.InvalidateNested()
		_, fault := e.m.Translate(0x401000)
		if fault == nil || fault.Kind != FaultNested {
			t.Fatalf("fault = %v, want nested at the PT node", fault)
		}
		if fault.Addr&^(addr.PageSize4K-1) != node {
			t.Fatalf("fault addr %#x not in unmapped node page %#x", fault.Addr, node)
		}
	})
	t.Run("table-ref-general", func(t *testing.T) {
		// Same unmapped-node fault through the general 2D walker: Guest
		// Direct with a segment that leaves the accessed gVAs uncovered
		// walks the guest table in nestedWalk2D, reaching
		// walkGuestTableSkip's nested loop and its fault exit. A period-1
		// sampler checks that the faulting walk refunds its tick.
		e := newEnv(t, 16, Config{})
		e.m.SetGuestSegment(segment.NewRegisters(0x10000000, 0x20000000, 2<<20))
		if e.m.Mode() != ModeGuestDirect {
			t.Fatalf("mode = %v, want %v", e.m.Mode(), ModeGuestDirect)
		}
		e.mapGuest(t, 0x400000, 0x800000, 2)
		if _, fault := e.m.Translate(0x400000); fault != nil {
			t.Fatal(fault)
		}
		_, _, refs, ok := e.gPT.Walk(0x401000, nil)
		if !ok || len(refs) == 0 {
			t.Fatal("guest walk failed")
		}
		node := refs[len(refs)-1].Addr &^ (addr.PageSize4K - 1)
		if err := e.nPT.Unmap(node, addr.Page4K); err != nil {
			t.Fatal(err)
		}
		e.m.InvalidateNested()
		s := sampleEverything(e.m)
		_, fault := e.m.Translate(0x401000)
		if fault == nil || fault.Kind != FaultNested {
			t.Fatalf("fault = %v, want nested", fault)
		}
		if s.Len() != 0 {
			t.Fatalf("faulting 2D walk recorded %d samples", s.Len())
		}
	})
}

// TestNestedWalkSkipClamp: a nested 2M leaf walked while the nested
// PDE cache covers its block yields a skip level (3) past the walk's
// last reference (index 2) — the clamp must charge exactly the leaf.
// Exercised on both the fused path and the general 2D walker.
func TestNestedWalkSkipClamp(t *testing.T) {
	e := newEnv(t, 16, Config{})
	// Prime the nested PDE cache for the 2M block at gPA 0x800000 with
	// an ordinary 4K nested walk.
	e.mapGuest(t, 0x400000, 0x800000, 1)
	if _, fault := e.m.Translate(0x400000); fault != nil {
		t.Fatal(fault)
	}
	// VMM repacks the block as one 2M nested page. The nested PWC is
	// deliberately left warm: its stale skip hint must be clamped, not
	// trusted.
	for off := uint64(0); off < addr.PageSize2M; off += addr.PageSize4K {
		if err := e.nPT.Unmap(0x800000+off, addr.Page4K); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.nPT.Map(0x800000, 0x40000000, addr.Page2M); err != nil {
		t.Fatal(err)
	}

	// Fused path: a fresh gVA whose gPA sits in the repacked block.
	if err := e.gPT.Map(0x402000, 0x801000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	res, fault := e.m.Translate(0x402008)
	if fault != nil {
		t.Fatal(fault)
	}
	if want := uint64(0x40000000 + 0x1008); res.HPA != want {
		t.Fatalf("fused 2M-block hPA = %#x, want %#x", res.HPA, want)
	}

	// General path: another page in the block, walked under Guest Direct
	// with a segment that leaves the gVA uncovered, so nestedWalk2D's
	// final nested translation meets the clamp in nestedTranslate. The
	// segment write leaves the nested PWC warm.
	if err := e.gPT.Map(0x404000, 0x802000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	e.m.SetGuestSegment(segment.NewRegisters(0x10000000, 0x20000000, 2<<20))
	if e.m.memoGate() {
		t.Fatal("Guest Direct configuration still passes the fused gate")
	}
	res, fault = e.m.Translate(0x404010)
	if fault != nil {
		t.Fatal(fault)
	}
	if want := uint64(0x40000000 + 0x2010); res.HPA != want {
		t.Fatalf("general 2M-block hPA = %#x, want %#x", res.HPA, want)
	}
}

// TestMemoEscapeGenDrift: a direct escape-filter mutation (the OS/VMM
// writes filters without an MMU call) must age out the whole memo on
// the next probe — the drifted generation forces a miss even for a
// page recorded in the same epoch regime.
func TestMemoEscapeGenDrift(t *testing.T) {
	e := newEnv(t, 16, Config{})
	e.m.SetMemoCheck(true)
	e.mapGuest(t, 0x400000, 0x800000, 1)
	if _, fault := e.m.Translate(0x400000); fault != nil {
		t.Fatal(fault)
	}
	if hits, misses := e.m.MemoStats(); hits != 0 || misses != 1 {
		t.Fatalf("after first miss: memo %d/%d", hits, misses)
	}
	e.m.GuestEscapeFilter().Insert(0x123)
	e.m.FlushTLBs()
	if _, fault := e.m.Translate(0x400000); fault != nil {
		t.Fatal(fault)
	}
	if hits, misses := e.m.MemoStats(); hits != 0 || misses != 2 {
		t.Fatalf("after drifted probe: memo %d/%d, want 0/2", hits, misses)
	}
	if g := e.m.escV.Gen() + e.m.escG.Gen(); e.m.memoEscGen != g {
		t.Fatalf("memoEscGen %d not resynced to %d", e.m.memoEscGen, g)
	}
}

// TestMemoVerifyPanics pins the oracle's two divergence checks: a
// replayed frame differing from the recorded one, and a recorded miss
// class that the fused gate could never have produced.
func TestMemoVerifyPanics(t *testing.T) {
	mustPanic := func(t *testing.T, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("memoVerify did not panic")
			}
		}()
		f()
	}
	m := New(Config{})
	t.Run("hpa-mismatch", func(t *testing.T) {
		e := &memoEntry{hpa: 0x1000, aux: memoAux(5, 2, walkprof.ClassWalkNeither)}
		mustPanic(t, func() { m.memoVerify(e, 0xABC000, 0x2000) })
	})
	t.Run("class-mismatch", func(t *testing.T) {
		e := &memoEntry{hpa: 0x1000, aux: memoAux(5, 2, walkprof.ClassWalk1D)}
		mustPanic(t, func() { m.memoVerify(e, 0xABC000, 0x1008) })
	})
}
