package mmu

// Per-page miss-outcome memoization and the fused 2D miss path.
//
// The memo caches, per (ASID, 4K VPN), the outcome of a fully resolved
// L1 miss in the unsegmented virtualized configuration. Every miss in
// that configuration takes the fused path — probeL2 followed by
// fusedWalk2D, a straight-line specialization of nestedWalk2D with the
// segment branches, interface dispatch, and slice-based reference
// plumbing compiled out. Observers ride along unchanged: the fused walk
// is bracketed by the same beginWalk/endWalk observation site as every
// other walker, so attaching a telemetry probe or a walkprof sampler
// does not change which code runs.
// Crucially the fused path RE-EXECUTES every modeled micro-operation
// (L2/PWC/nested-PWC/PTE-cache probes, LRU refreshes, insertions,
// accessed-bit stores) in exactly the per-event order, so it is stat-
// and state-exact for ALL inputs under the gate — a memo entry, stale
// or fresh, can never influence a simulated outcome.
//
// That same property bounds what the memo can be FOR: a hit licenses no
// skippable work, so consulting it in production is pure host-side
// overhead (measured ~10% of the GUPS hot path — the probe is one extra
// cache line of traffic per miss against a table the workload thrashes).
// The memo therefore engages only under SetMemoCheck, where it serves
// as a differential-testing oracle: each fused replay's outcome is
// cross-checked against the recorded one, and any invalidation bug in
// the epoch scheme surfaces as a panic rather than silent staleness.
// The epoch scheme below protects the freshness of the *recorded*
// outcome, not simulation correctness.
//
// Invalidation: every register write, flush, invalidation, ASID/context
// switch, and fault service bumps memoEpoch (see bumpEpoch callers in
// mmu.go); entries carry the epoch at record time and mismatched
// entries are dead. The escape filters are mutated directly by the
// OS/VMM rather than through MMU methods, so their mutation counters
// (escape.Filter.Gen) are mirrored in memoEscGen and a drift detected
// on the miss path bumps the epoch too.

import (
	"fmt"

	"vdirect/internal/addr"
	"vdirect/internal/telemetry/walkprof"
)

// Memo geometry: 2-way set-associative over the low VPN bits. A set's
// two 32-byte entries fill exactly one 64-byte host cache line, so a
// probe (and a record) costs one line of traffic. 16K entries (512KB)
// cover most of the dense cells' page working sets (gups touches ~16K
// distinct pages). The victim choice on a full set is host-side policy
// only — it is unobservable in the simulation — so a trivial VPN-bit
// pick suffices.
const (
	memoSets    = 8192
	memoWays    = 2
	memoSetBits = 13
)

// memoEntry records one resolved miss in 32 bytes. key packs a valid
// bit, the ASID, and the VPN exactly like the TLB tag layout; epoch
// must equal MMU.memoEpoch for the entry to be live. hpa and aux
// (cycles, §VII class, reference count) are the recorded outcome, read
// only by the memoCheck cross-check and MemoStats consumers — the
// fused replay never reads them.
type memoEntry struct {
	key   uint64
	epoch uint64
	hpa   uint64
	// aux packs cycles (bits 31:0), refs (47:32), class (55:48).
	aux uint64
}

func memoAux(cycles uint64, refs uint32, class walkprof.MissClass) uint64 {
	return cycles&0xFFFFFFFF | uint64(refs&0xFFFF)<<32 | uint64(class)<<48
}

// memoVPNMax bounds the VPN field of the packed key (shared layout with
// the TLB tags: bits 45:0).
const memoVPNMax = uint64(1) << 46

func memoKey(asid uint16, vpn uint64) uint64 {
	return 1<<63 | uint64(asid)<<46 | vpn
}

// memoGate reports whether the active register configuration is the one
// the fused path specializes: unsegmented nested paging with the PWCs
// and nested TLB enabled. Observers play no part in it — the fused walk
// feeds the probe and sampler through endWalk like every walker.
// updateScheme derives the scheme from these same registers, so the
// gate passing implies scheme == schemeBaseVirtualized.
func (m *MMU) memoGate() bool {
	return m.virtualized && !m.flatNested &&
		!m.segs.Guest.Enabled() && !m.segs.VMM.Enabled() &&
		!m.cfg.DisablePWC && !m.cfg.DisableNestedTLB
}

// missResolve is the L1-miss entry point: the fused path when the
// configuration is fused-eligible, the scheme's general path otherwise.
// The fused path is Base Virtualized's TranslateMiss with the walk
// specialized: the same L2 probe, then fusedWalk2D under the shared
// observation site. The memo itself is consulted inside fusedWalk2D,
// past the L2 probe: under the exact-replay doctrine a memo hit cannot
// skip any modeled work even on an L2 hit, so probing before the L2
// would spend a cache line of host traffic on misses the L2 resolves
// anyway.
func (m *MMU) missResolve(gva uint64) (Result, *Fault) {
	if !m.memoGate() {
		return m.translateMiss(gva)
	}
	var cycles uint64
	if res, hit := m.probeL2(gva, &cycles); hit {
		return res, nil
	}
	o := m.beginWalk()
	res, fault := m.fusedWalk2D(gva, cycles)
	m.endWalk(o, gva, fault)
	return res, fault
}

// memoLookup returns the live entry for (current ASID, vpn), or nil.
// The escape-filter generation check runs first: a drift means filter
// state changed since the last sync, so the whole memo is aged out.
func (m *MMU) memoLookup(vpn uint64) *memoEntry {
	if g := m.escV.Gen() + m.escG.Gen(); g != m.memoEscGen {
		m.memoEscGen = g
		m.bumpEpoch()
		return nil
	}
	if m.memo == nil || vpn >= memoVPNMax {
		return nil
	}
	key := memoKey(m.asid, vpn)
	set := (vpn & (memoSets - 1)) * memoWays
	for i := set; i < set+memoWays; i++ {
		if e := &m.memo[i]; e.key == key && e.epoch == m.memoEpoch {
			return e
		}
	}
	return nil
}

// memoRecord installs a resolved outcome, lazily allocating the table
// on the first recorded miss (native-only cells never pay for it).
func (m *MMU) memoRecord(vpn uint64, hpa, cycles uint64, refs uint32) {
	if m.memo == nil {
		m.memo = make([]memoEntry, memoSets*memoWays)
	}
	key := memoKey(m.asid, vpn)
	set := (vpn & (memoSets - 1)) * memoWays
	slot := &m.memo[set+(vpn>>memoSetBits&1)]
	for i := set; i < set+memoWays; i++ {
		if e := &m.memo[i]; e.key == key || e.epoch != m.memoEpoch {
			slot = e
			break
		}
	}
	*slot = memoEntry{
		key:   key,
		epoch: m.memoEpoch,
		hpa:   hpa,
		aux:   memoAux(cycles, refs, walkprof.ClassWalkNeither),
	}
}

// memoVerify cross-checks a completed fused walk against the recorded
// outcome: an epoch-valid entry for a page that still misses the L2
// must resolve to the same host frame (a remap without an intervening
// flush would be a TLB-coherence bug in the simulated OS/VMM, not a
// memo staleness case). Cycles and reference counts legitimately drift
// with PWC/PTE-cache state and are not asserted.
func (m *MMU) memoVerify(e *memoEntry, gva, hpa uint64) {
	if hpa>>addr.PageShift4K != e.hpa>>addr.PageShift4K {
		panic(fmt.Sprintf("mmu: memo check failed for gva %#x: fused hpa %#x, recorded %#x (epoch %d)",
			gva, hpa, e.hpa, m.memoEpoch))
	}
	if class := walkprof.MissClass(e.aux >> 48 & 0xFF); class != walkprof.ClassWalkNeither {
		panic(fmt.Sprintf("mmu: memo check failed for gva %#x: recorded class %v under fused gate",
			gva, class))
	}
}

// fusedWalk2D is the straight-line walk for the gated configuration:
// guest walk with every table reference nested-translated, final nested
// translation, classification, TLB insertion. It mirrors nestedWalk2D/
// walkGuestTable/nestedTranslate line for line with the branches the
// gate pins (segments disabled, PWCs and nested TLB enabled) removed,
// and uses the fixed-array walkers when the walk caches are primed.
// Stat updates, probe orders, and insertion orders are identical to the
// general path's.
func (m *MMU) fusedWalk2D(gva uint64, cycles uint64) (Result, *Fault) {
	// Miss memo, engaged only under memoCheck: a hit is cross-checked
	// against the replayed outcome below, a miss records it. Placed past
	// the L2 probe so pages the L2 still covers never spend the line of
	// host cache traffic a probe costs. In production the memo stays
	// dormant — under exact replay a hit can skip nothing, so probing
	// would be pure host-side overhead (~10% of the GUPS hot path;
	// EXPERIMENTS.md quantifies it).
	vpn := gva >> addr.PageShift4K
	var memoHit *memoEntry
	if m.memoCheck {
		if memoHit = m.memoLookup(vpn); memoHit != nil {
			m.memoHits++
		} else {
			m.memoMisses++
		}
	}
	refs0 := m.stats.WalkMemRefs

	// Guest dimension. The PWC was always probed before the walk
	// (walkGuestTable); the walk-cache precheck interposed here touches
	// no modeled state (pagetable.Probe4K).
	skip := m.pwc.SkipLevel(gva)
	var gpa uint64
	var gsize addr.PageSize
	if fp, ok := m.gPT.Probe4K(gva); ok {
		pa, refs, nref := fp.Emit(gva, skip)
		n := uint64(0)
		for i := 0; i < nref; i++ {
			hpa, _, f := m.nestedResolveFast(refs[i], &cycles)
			if f != nil {
				m.stats.WalkMemRefs += n
				m.stats.WalkCycles += cycles
				return Result{}, f
			}
			n++
			cycles += m.ptc.Access(hpa)
		}
		m.stats.WalkMemRefs += n
		m.pwc.FillFrom(gva, skip, addr.LvlPT)
		gpa, gsize = pa, addr.Page4K
	} else {
		pa, size, ok, fault := m.walkGuestTableSkip(gva, &cycles, true, skip)
		if fault != nil {
			m.stats.WalkCycles += cycles
			return Result{}, fault
		}
		if !ok {
			m.stats.GuestFaults++
			m.stats.WalkCycles += cycles
			return Result{}, &Fault{Kind: FaultGuest, Addr: gva}
		}
		gpa, gsize = pa, size
	}

	// Second dimension for the final gPA.
	hpa, nsize, fault := m.nestedResolveFast(gpa, &cycles)
	if fault != nil {
		m.stats.WalkCycles += cycles
		return Result{}, fault
	}

	// classifyMiss with both coverages false.
	m.stats.MissNeither++
	m.walkClass = walkprof.ClassWalkNeither
	m.stats.WalkCycles += cycles
	m.insertComposite(gva, hpa, gsize, nsize)
	if memoHit != nil {
		if m.memoCheck {
			m.memoVerify(memoHit, gva, hpa)
		}
	} else if m.memoCheck && vpn < memoVPNMax {
		m.memoRecord(vpn, hpa, cycles, uint32(m.stats.WalkMemRefs-refs0))
	}
	return Result{HPA: hpa, Cycles: cycles}, nil
}

// nestedResolveFast is nestedTranslate with the VMM-segment branch
// compiled out (the gate pins it disabled) and the walk-cache fast path
// taken through the fixed-array walker. Probe order matches
// nestedTranslate exactly: the nested PWC is probed only once a
// fast-path success is guaranteed (a fault must not perturb its LRU
// state), which Probe4K's state-free precheck preserves.
func (m *MMU) nestedResolveFast(gpa uint64, cycles *uint64) (uint64, addr.PageSize, *Fault) {
	if hpa, hit := m.l2.LookupNested(gpa); hit {
		m.stats.NestedTLBHits++
		*cycles += m.cfg.NestedProbeCycles
		return hpa, addr.Page4K, nil
	}
	m.stats.NestedTLBMisses++
	m.stats.NestedWalks++
	if fp, ok := m.nPT.Probe4K(gpa); ok {
		skip := m.npwc.SkipLevel(gpa)
		hpa, refs, nref := fp.Emit(gpa, skip)
		m.stats.WalkMemRefs += uint64(nref)
		cyc := *cycles
		for i := 0; i < nref; i++ {
			cyc += m.ptc.Access(refs[i])
		}
		*cycles = cyc
		m.npwc.FillFrom(gpa, skip, addr.LvlPT)
		m.l2.InsertNested(gpa&^(addr.PageSize4K-1), hpa&^(addr.PageSize4K-1))
		return hpa, addr.Page4K, nil
	}
	// General nested walk: cold walk cache or a non-4K/absent leaf.
	m.nrefBuf = m.nrefBuf[:0]
	hpa, nsize, refs, ok := m.nPT.Walk(gpa, m.nrefBuf)
	m.nrefBuf = refs
	skip := 0
	if ok {
		skip = m.npwc.SkipLevel(gpa)
		if skip > len(refs)-1 {
			skip = len(refs) - 1
		}
	}
	refs = refs[skip:]
	if !ok {
		m.stats.NestedFaults++
		return 0, 0, &Fault{Kind: FaultNested, Addr: gpa}
	}
	m.stats.WalkMemRefs += uint64(len(refs))
	cyc := *cycles
	for _, ref := range refs {
		cyc += m.ptc.Access(ref.Addr)
	}
	*cycles = cyc
	m.npwc.FillFrom(gpa, skip, refs[len(refs)-1].Level)
	m.l2.InsertNested(gpa&^(addr.PageSize4K-1), hpa&^(addr.PageSize4K-1))
	return hpa, nsize, nil
}

// MemoStats reports the miss-memo's hit/miss counts (host-side
// instrumentation, not simulated state).
func (m *MMU) MemoStats() (hits, misses uint64) { return m.memoHits, m.memoMisses }

// SetMemoCheck engages the miss memo and its per-replay cross-check of
// fused outcomes against recorded entries (panics on divergence).
// Differential tests and the oracle harness run with it on; production
// cells leave it off, where the memo costs nothing.
func (m *MMU) SetMemoCheck(on bool) { m.memoCheck = on }
