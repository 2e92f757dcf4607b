// Package mmu implements the paper's proposed address-translation
// hardware: the Figure 5(a) flow chart and Figure 5(b) page-walk state
// machines, with cycle and memory-reference accounting.
//
// The hardware is mode-less in the same sense as the proposal: behaviour
// is determined entirely by which segment register sets are enabled
// (BASE < LIMIT) and whether nested translation is active. The six
// paper modes are register configurations:
//
//	Native                 !virtualized, no segments
//	Direct Segment         !virtualized, guest segment (VA→PA)
//	Base Virtualized        virtualized, no segments      (2D walk, ≤24 refs)
//	Dual Direct             virtualized, both segments    (0D walk, 0 refs)
//	VMM Direct              virtualized, VMM segment      (1D walk, ≤4 refs)
//	Guest Direct            virtualized, guest segment    (1D walk, ≤4 refs)
//
// plus the post-paper FlatNested configuration (virtualized with the
// flat-walker flag set; see scheme_flat.go). Each configuration's
// miss-path behaviour lives in a registered Scheme (see scheme.go);
// register writes re-derive the active scheme, and the translation
// path dispatches through it without switching on mode.
//
// Escape filters (§V) hang off each segment set; a covered page that
// hits the filter falls back to the paging path for that dimension.
package mmu

import (
	"fmt"

	"vdirect/internal/addr"
	"vdirect/internal/escape"
	"vdirect/internal/pagetable"
	"vdirect/internal/ptecache"
	"vdirect/internal/segment"
	"vdirect/internal/telemetry"
	"vdirect/internal/telemetry/walkprof"
	"vdirect/internal/tlb"
	"vdirect/internal/trace"
)

// Config sets the simulated hardware's geometry and latencies.
type Config struct {
	// L1 geometry; zero value selects SandyBridgeL1.
	L1 tlb.Geometry
	// L2Entries/L2Ways for the shared second-level TLB (default 512/4).
	L2Entries, L2Ways int
	// PTECache models the data-cache path of walk references.
	PTECache ptecache.Config
	// SegmentCheckCycles is Δ, the cost of one base-bound check
	// (paper's estimate: 1 cycle per check).
	SegmentCheckCycles uint64
	// L2HitCycles is charged for L2 TLB probes on the L1-miss path.
	// Default 0: the paper's metric is page-walk duration (perf's
	// WALK_DURATION counters), which starts after the L2 TLB misses;
	// probe latency is identical across configurations and cancels out
	// of the overhead comparison. Set non-zero to model it anyway.
	L2HitCycles uint64
	// NestedProbeCycles is charged per nested-TLB probe performed
	// inside a 2D walk — that latency is part of walk duration.
	// Default 7.
	NestedProbeCycles uint64
	// DisablePWC turns off the paging-structure caches (ablation).
	DisablePWC bool
	// DisableNestedTLB stops nested translations from being cached in
	// the shared L2 (ablation: isolates the capacity-erosion effect).
	DisableNestedTLB bool
	// EscapeFilterBits sizes the escape filters (default 256, the
	// paper's; must be 4 × a power of two).
	EscapeFilterBits int
}

func (c Config) withDefaults() Config {
	zero := tlb.Geometry{}
	if c.L1 == zero {
		c.L1 = tlb.SandyBridgeL1
	}
	if c.L2Entries == 0 {
		c.L2Entries, c.L2Ways = 512, 4
	}
	if c.PTECache.Lines == 0 {
		c.PTECache = ptecache.Default
	}
	if c.SegmentCheckCycles == 0 {
		c.SegmentCheckCycles = 1
	}
	if c.NestedProbeCycles == 0 {
		c.NestedProbeCycles = 7
	}
	if c.EscapeFilterBits == 0 {
		c.EscapeFilterBits = escape.FilterBits
	}
	return c
}

// FaultKind says which translation dimension faulted.
type FaultKind uint8

// Fault dimensions.
const (
	FaultGuest  FaultKind = iota // gVA not mapped by guest page table
	FaultNested                  // gPA not mapped by nested page table
)

// Fault is returned when translation cannot complete; the OS/VMM layer
// services it (demand paging) and the access is retried.
type Fault struct {
	Kind FaultKind
	// Addr is the faulting gVA (FaultGuest) or gPA (FaultNested).
	Addr uint64
}

func (f *Fault) Error() string {
	which := "guest"
	if f.Kind == FaultNested {
		which = "nested"
	}
	return fmt.Sprintf("mmu: %s page fault at %#x", which, f.Addr)
}

// Stats are the event counts the evaluation reads — the simulator's
// replacement for perf counters plus BadgerTrap (§VII).
type Stats struct {
	Accesses uint64
	L1Hits   uint64
	L1Misses uint64
	L2Hits   uint64
	L2Misses uint64

	// ZeroDWalks counts L1 misses resolved purely by segment register
	// sets (Dual Direct's two-check 0D path, and the unvirtualized
	// Direct Segment fast path). Every L1 miss resolves as exactly one
	// of ZeroDWalks, L2Hits, or Walks.
	ZeroDWalks uint64
	// Walks counts invocations of the page-walk state machine.
	Walks uint64
	// WalkMemRefs counts page-table memory references performed.
	WalkMemRefs uint64
	// WalkCycles is the total cycles charged to TLB-miss handling
	// (segment checks + walk references + L2/NTLB probe costs).
	WalkCycles uint64

	SegmentChecks   uint64
	GuestSegHits    uint64 // gVA→gPA resolved by guest segment
	VMMSegHits      uint64 // gPA→hPA resolved by VMM segment
	NestedTLBHits   uint64
	NestedTLBMisses uint64
	NestedWalks     uint64
	EscapeProbes    uint64
	EscapeTaken     uint64 // filter said "escape" (member or false positive)
	GuestFaults     uint64
	NestedFaults    uint64

	// Table I / Table IV classification of L1 misses by segment
	// coverage of the address (measured on every L1 miss, like the
	// paper's BadgerTrap classification of DTLB misses).
	MissBoth      uint64 // in guest and VMM segments (F_DD)
	MissVMMOnly   uint64 // F_VD
	MissGuestOnly uint64 // F_GD
	MissNeither   uint64
}

// MMU is one simulated translation pipeline (one hardware context).
type MMU struct {
	cfg  Config
	l1   *tlb.L1
	l2   *tlb.L2
	pwc  *tlb.PWC // guest-dimension paging-structure caches
	npwc *tlb.PWC // nested-dimension paging-structure caches
	ptc  *ptecache.Cache

	virtualized bool
	flatNested  bool
	// scheme is the active translation scheme, re-derived from the
	// register configuration on every register write (updateScheme) so
	// the translation path is one interface call, no mode switch.
	scheme Scheme
	segs   segment.Pair
	// escV escapes pages from the VMM segment (Dual/VMM Direct); escG
	// escapes pages from the guest segment (Direct Segment mode).
	escV *escape.Filter
	escG *escape.Filter

	// gPT translates the first dimension: gVA→gPA (or VA→PA native).
	gPT *pagetable.Table
	// nPT translates the second dimension: gPA→hPA. nil when native.
	nPT *pagetable.Table

	stats Stats

	// probe, when non-nil, receives per-walk memory-reference and cycle
	// deltas for telemetry histograms (endWalk). It is single-goroutine
	// state like the rest of the MMU; nil (the default) costs one nil
	// check per walk.
	probe *telemetry.WalkProbe

	// sampler, when non-nil, receives a deterministic 1-in-N sample of
	// resolved L1 misses (walkprof, the simulated BadgerTrap). Like the
	// probe it lives entirely on the miss path: disabled sampling costs
	// one nil check per miss and nothing per L1 hit.
	sampler *walkprof.Sampler
	// asid is the active address-space tag stamped into samples; it
	// tracks ContextSwitchASID and stays 0 for single-process cells.
	asid uint16
	// walkClass/walkSize carry the last completed walk's miss class and
	// effective page size from the walker (nativeWalk or classifyMiss,
	// then insertComposite) out to the sampling point in endWalk.
	walkClass walkprof.MissClass
	walkSize  addr.PageSize

	refBuf  []pagetable.Ref // reusable guest-walk buffer
	nrefBuf []pagetable.Ref // reusable nested-walk buffer

	// One-entry last-page cache in front of the L1: the 4K page of the
	// most recent successful translation. A hit here is exactly the set
	// of accesses whose immediate predecessor touched the same 4K page —
	// the previous translation inserted (or refreshed) a covering L1
	// entry and nothing ran in between, so the real L1 would hit too and
	// the entry is already MRU in its set. Skipping the probe therefore
	// changes no stats and no replacement decision; every TLB-mutating
	// operation drops the entry.
	lastValid bool
	lastVBase uint64 // 4K-aligned gVA
	lastHBase uint64 // 4K-aligned hPA

	// Miss-outcome memo (memo.go): per-(ASID, 4K VPN) records of fully
	// resolved misses, invalidated wholesale by memoEpoch. A hit
	// licenses the fused straight-line replay of the miss path; every
	// modeled micro-op still re-executes there, so the memo can steer
	// only host-side structure, never simulated outcomes.
	memo      []memoEntry
	memoEpoch uint64
	// memoEscGen mirrors escV.Gen()+escG.Gen() as of the last epoch
	// sync; a drift detected on the miss path bumps the epoch, making
	// escape-filter mutation an invalidation source even though the
	// filters are mutated directly, not through MMU methods.
	memoEscGen uint64
	memoHits   uint64
	memoMisses uint64
	// memoCheck engages the memo: entries are recorded, probed, and
	// each fused replay's result cross-checked against the recorded
	// outcome (panic on divergence). Off by default: the exact-replay
	// doctrine means a memo hit licenses nothing skippable, so in
	// production the probe would spend a host cache line per miss to
	// learn what the replay recomputes anyway — measured at ~10% of the
	// GUPS hot path. The memo therefore runs as a differential-testing
	// oracle, not an accelerator; see DESIGN.md §5.
	memoCheck bool
}

// bumpEpoch invalidates the miss memo wholesale. Every operation that
// can change how a future miss resolves — flushes, ASID switches,
// invalidations, table/segment/scheme register writes, fault service —
// lands here; correctness does not depend on the list being complete
// (the fused replay re-reads all modeled state), only the memo's
// recorded outcomes' freshness does.
func (m *MMU) bumpEpoch() { m.memoEpoch++ }

// New builds an MMU with the given hardware configuration.
func New(cfg Config) *MMU {
	cfg = cfg.withDefaults()
	m := &MMU{
		cfg:  cfg,
		l1:   tlb.NewL1(cfg.L1),
		l2:   tlb.NewL2(cfg.L2Entries, cfg.L2Ways),
		pwc:  tlb.NewPWC(),
		npwc: tlb.NewPWC(),
		ptc:  ptecache.New(cfg.PTECache),
		escV: escape.NewSized(cfg.EscapeFilterBits, escape.NumHashes, 1),
		escG: escape.NewSized(cfg.EscapeFilterBits, escape.NumHashes, 2),
	}
	m.updateScheme()
	return m
}

// SetGuestPageTable installs the active first-dimension page table.
func (m *MMU) SetGuestPageTable(t *pagetable.Table) {
	m.gPT = t
	m.lastValid = false
	m.bumpEpoch()
}

// SetNestedPageTable installs the second-dimension table and enables
// virtualized (two-level) translation. Passing nil returns to native.
func (m *MMU) SetNestedPageTable(t *pagetable.Table) {
	m.nPT = t
	m.virtualized = t != nil
	m.lastValid = false
	m.bumpEpoch()
	m.updateScheme()
}

// SetFlatNested enables the flattened nested page table walker: while
// virtualized, the FlatNested scheme replaces the base 2D walk
// (interior guest levels cost one flat-table reference each — see
// scheme_flat.go). The flag is latent outside virtualized operation
// and composes with any segment configuration.
func (m *MMU) SetFlatNested(on bool) {
	m.flatNested = on
	m.lastValid = false
	m.bumpEpoch()
	m.updateScheme()
}

// FlatNested reports whether the flat walker flag is set.
func (m *MMU) FlatNested() bool { return m.flatNested }

// SetGuestSegment programs BASE_G/LIMIT_G/OFFSET_G.
func (m *MMU) SetGuestSegment(r segment.Registers) {
	m.segs.Guest = r
	m.lastValid = false
	m.bumpEpoch()
	m.updateScheme()
}

// SetVMMSegment programs BASE_V/LIMIT_V/OFFSET_V.
func (m *MMU) SetVMMSegment(r segment.Registers) {
	m.segs.VMM = r
	m.lastValid = false
	m.bumpEpoch()
	m.updateScheme()
}

// GuestSegment returns the current guest segment registers.
func (m *MMU) GuestSegment() segment.Registers { return m.segs.Guest }

// VMMSegment returns the current VMM segment registers.
func (m *MMU) VMMSegment() segment.Registers { return m.segs.VMM }

// VMMEscapeFilter exposes the filter guarding the VMM segment.
func (m *MMU) VMMEscapeFilter() *escape.Filter { return m.escV }

// GuestEscapeFilter exposes the filter guarding the guest segment.
func (m *MMU) GuestEscapeFilter() *escape.Filter { return m.escG }

// Mode reports the active scheme's name, derived from the current
// register configuration.
func (m *MMU) Mode() Mode { return m.scheme.Name() }

// ActiveScheme returns the scheme the register configuration selects.
func (m *MMU) ActiveScheme() Scheme { return m.scheme }

// SetWalkProbe installs (or, with nil, removes) a per-walk telemetry
// probe. The probe observes each page walk's memory-reference count and
// cycle cost as deltas of the MMU's own counters, so it cannot drift
// from the reported statistics.
func (m *MMU) SetWalkProbe(p *telemetry.WalkProbe) { m.probe = p }

// SetWalkSampler installs (or, with nil, removes) a walkprof sampler.
// Every resolved L1 miss — segment fast path, L2 hit, or completed walk
// — is offered to it with the miss's classification and exact cost
// deltas; the sampler decides (deterministically) which to record.
// Faulting walks are not offered: the access retries after service and
// the retry's resolution is what gets sampled.
func (m *MMU) SetWalkSampler(s *walkprof.Sampler) { m.sampler = s }

// Stats returns a copy of the accumulated counters.
func (m *MMU) Stats() Stats { return m.stats }

// ResetStats zeroes the counters (after warmup).
func (m *MMU) ResetStats() { m.stats = Stats{} }

// FlushTLBs empties all translation caches, as a full CR3 write +
// nested invalidation would.
func (m *MMU) FlushTLBs() {
	m.lastValid = false
	m.bumpEpoch()
	m.l1.Flush()
	m.l2.Flush()
	m.pwc.Flush()
	m.npwc.Flush()
}

// ContextSwitch models a guest process switch: the guest page table and
// guest segment registers change; guest-visible translations flush.
func (m *MMU) ContextSwitch(gpt *pagetable.Table, guestSeg segment.Registers) {
	m.lastValid = false
	m.bumpEpoch()
	m.gPT = gpt
	m.segs.Guest = guestSeg
	m.updateScheme()
	m.l1.Flush()
	m.l2.Flush() // no PCID on the modeled machine
	m.pwc.Flush()
}

// ContextSwitchASID models a PCID-tagged process switch: instead of
// flushing, translation caches retag to the incoming process's
// address-space identifier, so its entries from earlier timeslices
// still hit. (The paper's 2014-era Linux flushed on every switch; this
// is the tagged-TLB extension.) Nested entries are per-VM and survive
// regardless.
func (m *MMU) ContextSwitchASID(gpt *pagetable.Table, guestSeg segment.Registers, asid uint16) {
	m.lastValid = false
	m.bumpEpoch()
	m.gPT = gpt
	m.segs.Guest = guestSeg
	m.updateScheme()
	m.asid = asid
	m.l1.SetASID(asid)
	m.l2.SetASID(asid)
	m.pwc.SetASID(asid)
}

// FlushASID drops one address space's translations from every guest-
// dimension cache — INVPCID of a single PCID. Nested entries are per-VM
// and survive; the current address space's last-page cache is dropped
// unconditionally (the flushed ASID may be the active one).
func (m *MMU) FlushASID(a uint16) {
	m.lastValid = false
	m.bumpEpoch()
	m.l1.FlushASID(a)
	m.l2.FlushASID(a)
	m.pwc.FlushASID(a)
}

// InvalidatePage models INVLPG after the guest OS unmaps or remaps a
// page: every composite entry covering the mapping is dropped. Because
// composite entries may be cached at 4K grain even for larger guest
// mappings, the whole mapped span is invalidated page by page.
//
// The paging-structure caches are left alone: in this simulator they
// only discount walk cost (walks always consult the real tables), so a
// stale PSC entry cannot produce a wrong translation, merely a slightly
// optimistic cost for one walk.
func (m *MMU) InvalidatePage(gva uint64, s addr.PageSize) {
	m.lastValid = false
	m.bumpEpoch()
	base := addr.PageBase(gva, s)
	for off := uint64(0); off < s.Bytes(); off += addr.PageSize4K {
		m.l1.Invalidate(base + off)
		m.l2.InvalidateGuest(base + off)
	}
}

// InvalidateNested models a nested-page-table change (VMM remap): all
// composite and nested translations derived from the nPT are stale.
func (m *MMU) InvalidateNested() {
	m.lastValid = false
	m.bumpEpoch()
	m.l1.Flush()
	m.l2.Flush()
	m.pwc.Flush()
	m.npwc.Flush()
	m.ptc.Flush()
}

// Result describes one completed translation.
type Result struct {
	HPA uint64
	// Cycles charged to TLB-miss handling for this access (0 on L1 hit).
	Cycles uint64
	// L1Hit, L2Hit, ZeroD classify how the translation resolved.
	L1Hit, L2Hit, ZeroD bool
}

// Translate runs one data access through the pipeline of Figure 5(a).
func (m *MMU) Translate(gva uint64) (Result, *Fault) {
	m.stats.Accesses++

	// Last-page cache: a repeat access to the previous 4K page is by
	// construction an L1 hit (see the field comment) and short-circuits
	// the three-structure probe.
	vbase := gva &^ (addr.PageSize4K - 1)
	if m.lastValid && vbase == m.lastVBase {
		m.stats.L1Hits++
		return Result{HPA: m.lastHBase + (gva - vbase), L1Hit: true}, nil
	}

	// L1 TLB lookup (all sizes in parallel).
	if hpa, _, hit := m.l1.Lookup(gva); hit {
		m.stats.L1Hits++
		m.lastValid, m.lastVBase, m.lastHBase = true, vbase, hpa&^(addr.PageSize4K-1)
		return Result{HPA: hpa, L1Hit: true}, nil
	}
	m.stats.L1Misses++

	res, fault := m.missResolve(gva)
	if fault != nil {
		m.bumpEpoch() // the fault will be serviced before the retry
		return Result{}, fault
	}
	m.lastValid, m.lastVBase, m.lastHBase = true, vbase, res.HPA&^(addr.PageSize4K-1)
	return res, nil
}

// TranslateBlock translates a block of access events in one call,
// writing per-event results into out when it is non-nil (out must then
// be at least len(evs) long). It returns the number of events completed;
// on a fault, that is the faulting event's index and the caller services
// the fault and resumes from there. Accesses/L1Hits accumulate in locals
// and flush at block end (or before any slow-path entry), so Stats read
// outside TranslateBlock are identical to per-event Translate calls —
// this is the tight loop behind the replay engine's AccessBlock hook.
// Probe-for-probe it is exactly per-event Translate.
func (m *MMU) TranslateBlock(evs []trace.Event, out []Result) (int, *Fault) {
	var accesses, l1Hits uint64
	lastValid, lastVBase, lastHBase := m.lastValid, m.lastVBase, m.lastHBase
	for i := range evs {
		gva := uint64(evs[i].VA)
		accesses++
		vbase := gva &^ (addr.PageSize4K - 1)
		if lastValid && vbase == lastVBase {
			l1Hits++
			if out != nil {
				out[i] = Result{HPA: lastHBase + (gva - vbase), L1Hit: true}
			}
			continue
		}
		if hpa, _, hit := m.l1.Lookup(gva); hit {
			l1Hits++
			lastValid, lastVBase, lastHBase = true, vbase, hpa&^(addr.PageSize4K-1)
			if out != nil {
				out[i] = Result{HPA: hpa, L1Hit: true}
			}
			continue
		}
		// Slow path: flush the local counters first so the walk machinery
		// (and any telemetry probe reading counter deltas) sees exact
		// stats, exactly as per-event Translate would.
		m.stats.Accesses += accesses
		m.stats.L1Hits += l1Hits
		accesses, l1Hits = 0, 0
		m.stats.L1Misses++
		res, fault := m.missResolve(gva)
		if fault != nil {
			m.lastValid, m.lastVBase, m.lastHBase = lastValid, lastVBase, lastHBase
			m.bumpEpoch() // the fault will be serviced before the retry
			return i, fault
		}
		lastValid, lastVBase, lastHBase = true, vbase, res.HPA&^(addr.PageSize4K-1)
		if out != nil {
			out[i] = res
		}
	}
	m.stats.Accesses += accesses
	m.stats.L1Hits += l1Hits
	m.lastValid, m.lastVBase, m.lastHBase = lastValid, lastVBase, lastHBase
	return len(evs), nil
}

// translateMiss handles everything past an L1 miss by dispatching to
// the active scheme: segment fast paths, the L2 probe, and the
// scheme's walk machine.
func (m *MMU) translateMiss(gva uint64) (Result, *Fault) {
	return m.scheme.TranslateMiss(m, gva)
}

// dualFastPath is the Dual Direct 0D path, shared by the schemes whose
// register configuration can have both segment sets enabled: both
// covering the address → hPA = gVA + OFFSET_G + OFFSET_V. The two
// base-bound checks are performed together in one added cycle (Table
// II counts this as one check). Declined (uncovered or escaped)
// accesses charge nothing here beyond the filter probes.
func (m *MMU) dualFastPath(gva uint64, cycles *uint64) (Result, bool) {
	if !(m.segs.Guest.Enabled() && m.segs.VMM.Enabled() &&
		m.segs.Guest.Contains(gva) && !m.escapeGuest(gva)) {
		return Result{}, false
	}
	gpa := m.segs.Guest.Translate(gva)
	if !m.segs.VMM.Contains(gpa) || m.escapeVMM(gpa) {
		return Result{}, false
	}
	*cycles += m.cfg.SegmentCheckCycles
	m.stats.SegmentChecks++
	m.stats.ZeroDWalks++
	m.stats.GuestSegHits++
	m.stats.VMMSegHits++
	m.stats.MissBoth++
	m.stats.WalkCycles += *cycles
	hpa := m.segs.VMM.Translate(gpa)
	m.l1.Insert(gva, hpa, addr.Page4K)
	m.sampleWalkless(gva, walkprof.ClassZeroD, *cycles)
	return Result{HPA: hpa, Cycles: *cycles, ZeroD: true}, true
}

// probeL2 is the shared L2 TLB lookup of the miss path (guest 4K
// entries; any segment calculation proceeds in parallel, §III.D). The
// probe cost is charged hit or miss.
func (m *MMU) probeL2(gva uint64, cycles *uint64) (Result, bool) {
	if hpa, hit := m.l2.LookupGuest(gva); hit {
		m.stats.L2Hits++
		*cycles += m.cfg.L2HitCycles
		m.stats.WalkCycles += *cycles
		m.l1.Insert(gva, hpa, addr.Page4K)
		m.sampleWalkless(gva, walkprof.ClassL2Hit, *cycles)
		return Result{HPA: hpa, Cycles: *cycles, L2Hit: true}, true
	}
	m.stats.L2Misses++
	*cycles += m.cfg.L2HitCycles // the probe that missed
	return Result{}, false
}

// escapeVMM probes the VMM-segment escape filter for a gPA page.
func (m *MMU) escapeVMM(gpa uint64) bool {
	m.stats.EscapeProbes++
	if m.escV.MayContain(gpa >> addr.PageShift4K) {
		m.stats.EscapeTaken++
		return true
	}
	return false
}

// escapeGuest probes the guest-segment escape filter for a VA page.
func (m *MMU) escapeGuest(va uint64) bool {
	m.stats.EscapeProbes++
	if m.escG.MayContain(va >> addr.PageShift4K) {
		m.stats.EscapeTaken++
		return true
	}
	return false
}

// sampleWalkless offers a miss resolved without a walk (a segment 0D
// hit or an L2 hit) to the walkprof sampler: 4K grain, no references.
func (m *MMU) sampleWalkless(gva uint64, class walkprof.MissClass, cycles uint64) {
	if m.sampler != nil && m.sampler.Tick() {
		m.sampler.Record(string(m.scheme.Name()), gva>>addr.PageShift4K,
			addr.Page4K, class, 0, cycles, m.asid)
	}
}

// walkObs is one in-flight walk's observation state: whether the
// sampler selected it, and the counter values its reference and cycle
// deltas are taken against.
type walkObs struct {
	sampled     bool
	refs0, cyc0 uint64
}

// beginWalk counts a walk invocation and ticks the sampler before the
// walk runs, so the 1-in-N unsampled majority pays only the inlined
// countdown (a selected walk that faults refunds its tick in endWalk).
func (m *MMU) beginWalk() walkObs {
	m.stats.Walks++
	return walkObs{
		sampled: m.sampler != nil && m.sampler.Tick(),
		refs0:   m.stats.WalkMemRefs,
		cyc0:    m.stats.WalkCycles,
	}
}

// endWalk is the one observation site of every page walk — native,
// 2D, flat and fused alike. The telemetry probe sees the walk's
// reference and cycle deltas, faulting or not; a sampled walk records
// the class and size the walker left in walkClass/walkSize, or refunds
// its tick when it faulted (the retry after service is what gets
// sampled). The walkers stay direct calls at their wrappers rather
// than a function value passed in here, which would allocate on the
// hot path.
func (m *MMU) endWalk(o walkObs, gva uint64, fault *Fault) {
	if m.probe == nil && !o.sampled {
		return
	}
	drefs, dcyc := m.stats.WalkMemRefs-o.refs0, m.stats.WalkCycles-o.cyc0
	if m.probe != nil {
		m.probe.Refs.Observe(drefs)
		m.probe.Cycles.Observe(dcyc)
	}
	if !o.sampled {
		return
	}
	if fault != nil {
		m.sampler.Refund()
		return
	}
	m.sampler.Record(string(m.scheme.Name()), gva>>addr.PageShift4K,
		m.walkSize, m.walkClass, drefs, dcyc, m.asid)
}

// walk1D invokes the native 1D walk state machine, charging cycles on
// top of the cost already accumulated.
func (m *MMU) walk1D(gva uint64, cycles uint64) (Result, *Fault) {
	o := m.beginWalk()
	res, fault := m.nativeWalk(gva, cycles)
	m.endWalk(o, gva, fault)
	return res, fault
}

// walk2D invokes the 2D walk state machine of Figure 5(b).
func (m *MMU) walk2D(gva uint64, cycles uint64) (Result, *Fault) {
	o := m.beginWalk()
	res, fault := m.nestedWalk2D(gva, cycles)
	m.endWalk(o, gva, fault)
	return res, fault
}

// walkFlat invokes the flattened 2D walk (scheme_flat.go).
func (m *MMU) walkFlat(gva uint64, cycles uint64) (Result, *Fault) {
	o := m.beginWalk()
	res, fault := m.flatWalk2D(gva, cycles)
	m.endWalk(o, gva, fault)
	return res, fault
}

// nativeWalk is the 1D walk: up to 4 references through the PTE cache,
// reduced by the paging-structure caches.
func (m *MMU) nativeWalk(va uint64, cycles uint64) (Result, *Fault) {
	pa, size, ok, _ := m.walkGuestTable(va, &cycles, false)
	if !ok {
		m.stats.GuestFaults++
		m.stats.WalkCycles += cycles
		return Result{}, &Fault{Kind: FaultGuest, Addr: va}
	}
	m.stats.WalkCycles += cycles
	m.walkClass = walkprof.ClassWalk1D
	m.insertComposite(va, pa, size, size)
	return Result{HPA: pa, Cycles: cycles}, nil
}

// walkGuestTable walks the first-dimension table, applying the guest
// PWC and, when nested (virtualized mode), translating every table
// reference (a gPA) through the nested dimension before reading it. It
// returns the leaf translation and its page size; the references
// themselves are accounted into the stats and PWC here, so no caller
// consumes them. A non-nil fault (nested dimension failed mid-walk)
// takes precedence over !ok at the caller.
func (m *MMU) walkGuestTable(va uint64, cycles *uint64, nested bool) (pa uint64, size addr.PageSize, ok bool, fault *Fault) {
	// The PWC is probed before the walk (it always was probed, success
	// or fault) so the walk can skip materializing references the
	// charging loop below would never read; WalkFrom still emits the
	// leaf (or faulting) reference, matching Walk's clamped refs[skip:].
	skip := 0
	if !m.cfg.DisablePWC {
		skip = m.pwc.SkipLevel(va)
	}
	return m.walkGuestTableSkip(va, cycles, nested, skip)
}

// walkGuestTableSkip is walkGuestTable with the PWC skip level already
// probed — the fused miss path (memo.go) interposes other work between
// the probe and the walk.
func (m *MMU) walkGuestTableSkip(va uint64, cycles *uint64, nested bool, skip int) (pa uint64, size addr.PageSize, ok bool, fault *Fault) {
	m.refBuf = m.refBuf[:0]
	pa, size, refs, ok := m.gPT.WalkFrom(va, skip, m.refBuf)
	m.refBuf = refs

	// The ref count is accumulated locally and flushed to the stats
	// struct once (including on the fault path, where only the refs
	// performed before the abort count), not read-modify-written per
	// reference.
	n := uint64(0)
	for _, ref := range refs {
		physAddr := ref.Addr
		if nested {
			hpa, _, f := m.nestedTranslate(ref.Addr, cycles)
			if f != nil {
				m.stats.WalkMemRefs += n
				return 0, 0, false, f
			}
			physAddr = hpa
		}
		n++
		*cycles += m.ptc.Access(physAddr)
	}
	m.stats.WalkMemRefs += n
	if ok && !m.cfg.DisablePWC {
		// Interior levels traversed feed the paging-structure caches.
		leafLvl := refs[len(refs)-1].Level
		m.pwc.FillFrom(va, skip, leafLvl)
	}
	return pa, size, ok, nil
}

// nestedTranslate resolves one gPA to hPA: VMM segment (with escape
// filter), then nested TLB, then a nested page-table walk.
func (m *MMU) nestedTranslate(gpa uint64, cycles *uint64) (uint64, addr.PageSize, *Fault) {
	// VMM segment check costs Δ whenever the registers are enabled —
	// the hardware performs it unconditionally (Figure 5(b)).
	if m.segs.VMM.Enabled() {
		*cycles += m.cfg.SegmentCheckCycles
		m.stats.SegmentChecks++
		if m.segs.VMM.Contains(gpa) && !m.escapeVMM(gpa) {
			m.stats.VMMSegHits++
			return m.segs.VMM.Translate(gpa), addr.Page4K, nil
		}
	}
	// Nested TLB (shared L2 structure).
	if !m.cfg.DisableNestedTLB {
		if hpa, hit := m.l2.LookupNested(gpa); hit {
			m.stats.NestedTLBHits++
			*cycles += m.cfg.NestedProbeCycles
			return hpa, addr.Page4K, nil
		}
		m.stats.NestedTLBMisses++
	}
	// Nested page-table walk: up to 4 references, reduced by the
	// nested paging-structure caches. The ref buffer is reused across
	// walks (separate from the guest-walk buffer, which is live while a
	// 2D walk translates its table references through this path).
	m.stats.NestedWalks++
	m.nrefBuf = m.nrefBuf[:0]
	var hpa uint64
	var nsize addr.PageSize
	var refs []pagetable.Ref
	var ok bool
	skip := 0
	fast := false
	if !m.cfg.DisablePWC {
		// WalkFast runs the walk-cache path and calls back for the skip
		// level only once success is guaranteed, so the nested PWC is
		// probed up front (the probe order relative to the walk is
		// unobservable — the walk never touches the PWC) and the walk
		// skips materializing references the charging loop would drop.
		// A fault, which under the old order returned before the PWC
		// probe, is impossible on the fast path; the general path below
		// keeps probe-after-walk for that case.
		hpa, nsize, refs, fast = m.nPT.WalkFast(gpa, func() int {
			skip = m.npwc.SkipLevel(gpa)
			return skip
		}, m.nrefBuf)
	}
	if fast {
		m.nrefBuf = refs
		ok = true
	} else {
		hpa, nsize, refs, ok = m.nPT.Walk(gpa, m.nrefBuf)
		m.nrefBuf = refs // keep the buffer anchored at its start
		if ok && !m.cfg.DisablePWC {
			skip = m.npwc.SkipLevel(gpa)
			if skip > len(refs)-1 {
				skip = len(refs) - 1
			}
		}
		refs = refs[skip:]
	}
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
	if !m.cfg.DisablePWC {
		m.npwc.FillFrom(gpa, skip, refs[len(refs)-1].Level)
	}
	if !m.cfg.DisableNestedTLB {
		m.l2.InsertNested(gpa&^(addr.PageSize4K-1), hpa&^(addr.PageSize4K-1))
	}
	return hpa, nsize, nil
}

// nestedWalk2D is the two-dimensional walk of Figure 2, flattened in
// one or both dimensions when segments cover the relevant ranges.
func (m *MMU) nestedWalk2D(gva uint64, cycles uint64) (Result, *Fault) {
	// The guest escape filter is the §V extension ("escape filters at
	// both levels so the guest OS can escape pages as well"): a covered
	// gVA that hits it walks the guest page table instead.
	guestCovered := m.segs.Guest.Enabled() && m.segs.Guest.Contains(gva) &&
		!m.escapeGuest(gva)
	if m.segs.Guest.Enabled() {
		// The guest base-bound check happens once per walk (Δ_GD = 1).
		cycles += m.cfg.SegmentCheckCycles
		m.stats.SegmentChecks++
	}

	var gpa uint64
	var gsize addr.PageSize
	if guestCovered {
		// First dimension flattened: gPA = gVA + OFFSET_G.
		m.stats.GuestSegHits++
		gpa = m.segs.Guest.Translate(gva)
		gsize = addr.Page4K
	} else {
		// Walk the guest page table; each reference is a gPA needing
		// nested translation first (the 5×4 of the 24-reference walk).
		pa, size, ok, fault := m.walkGuestTable(gva, &cycles, true)
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
	vmmCovered := m.segs.VMM.Enabled() && m.segs.VMM.Contains(gpa)
	hpa, nsize, fault := m.nestedTranslate(gpa, &cycles)
	if fault != nil {
		m.stats.WalkCycles += cycles
		return Result{}, fault
	}

	m.classifyMiss(guestCovered, vmmCovered)
	m.stats.WalkCycles += cycles
	m.insertComposite(gva, hpa, gsize, nsize)
	return Result{HPA: hpa, Cycles: cycles}, nil
}

// classifyMiss updates the Table I / Table IV fraction counters and
// records the walk's class for the walkprof sampler (the §VII taxonomy
// and these counters are the same classification, so they cannot
// disagree).
func (m *MMU) classifyMiss(guestCovered, vmmCovered bool) {
	switch {
	case guestCovered && vmmCovered:
		m.stats.MissBoth++
		m.walkClass = walkprof.ClassWalkBoth
	case vmmCovered:
		m.stats.MissVMMOnly++
		m.walkClass = walkprof.ClassWalkVMMOnly
	case guestCovered:
		m.stats.MissGuestOnly++
		m.walkClass = walkprof.ClassWalkGuestOnly
	default:
		m.stats.MissNeither++
		m.walkClass = walkprof.ClassWalkNeither
	}
}

// insertComposite installs the completed gVA→hPA translation in the
// TLBs. The cacheable granularity is the smaller of the two dimensions'
// page sizes; the L2 holds only 4K entries (Table VI).
func (m *MMU) insertComposite(gva, hpa uint64, gsize, nsize addr.PageSize) {
	size := gsize
	if nsize < size {
		size = nsize
	}
	m.walkSize = size
	if size == addr.Page4K {
		base := gva &^ (addr.PageSize4K - 1)
		hbase := hpa &^ (addr.PageSize4K - 1)
		m.l1.Insert(base, hbase, addr.Page4K)
		m.l2.InsertGuest(base, hbase)
		return
	}
	m.l1.Insert(addr.PageBase(gva, size), addr.PageBase(hpa, size), size)
}

// L2NestedStats exposes shared-L2 statistics for the §IX.A analysis.
func (m *MMU) L2NestedStats() (lookups, hits, nestedInserts uint64) {
	return m.l2.Stats()
}

// L2Evictions reports how many valid entries the shared L2 TLB has
// replaced — the capacity-pressure signal behind the paper's §IX.A
// erosion numbers, exported as a telemetry counter by the harness.
func (m *MMU) L2Evictions() uint64 { return m.l2.Evictions() }
