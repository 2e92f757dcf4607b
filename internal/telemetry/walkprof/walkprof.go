// Package walkprof is the harness's walk-level attribution layer — the
// simulated analogue of the paper's BadgerTrap instrumentation (§VII).
// Where internal/telemetry reports aggregate counters (how many cycles
// each scheme spends on TLB-miss handling), walkprof records *which*
// misses cost what: a deterministic 1-in-N sample of individual L1-miss
// resolutions, each tagged with the 4K virtual page, the resulting
// translation's page size, the active scheme, the miss class of the
// §VII taxonomy, the walk's memory-reference and cycle cost, and the
// address-space/tenant identity.
//
// Sampling is stride-based and owned by the simulation cell: the
// sampler is a plain countdown decremented on the (already slow) miss
// path, with no time, no math/rand, and no shared state, committed to
// the shared profile once at cell completion. A cell's sample
// stream is therefore a pure function of that cell's access stream and
// seed, so output is byte-identical at any scheduler parallelism or
// shard count, and a disabled profiler costs the MMU exactly one nil
// check per miss.
//
// Lifecycle mirrors telemetry: Enable installs a process-wide Profile,
// cells attach per-cell Samplers and commit them once at completion,
// and Snapshot produces a deterministic Dump that the aggregators
// (heatmap, exact quantiles, top pages, attribution — see report.go)
// and the sample-file writer consume.
package walkprof

import (
	"sort"
	"sync"
	"sync/atomic"

	"vdirect/internal/addr"
)

// MissClass classifies how one L1 TLB miss resolved, following the
// paper's §VII BadgerTrap taxonomy: segment-resolved misses (the 0D
// fast paths), L2 TLB hits, and page walks split by which segment
// covered the address — the Table I F_DD / F_VD / F_GD fractions.
type MissClass uint8

// The miss classes. Walk classes carry the Table I segment-coverage
// split; 1D walks (unvirtualized paging, where coverage does not
// apply) have their own class.
const (
	// ClassZeroD: resolved purely by segment registers — Dual Direct's
	// combined check or Direct Segment's single check. Zero references.
	ClassZeroD MissClass = iota
	// ClassL2Hit: resolved by the shared second-level TLB.
	ClassL2Hit
	// ClassWalk1D: a native (unvirtualized) page walk.
	ClassWalk1D
	// ClassWalkBoth: a 2D walk whose address both segments covered
	// (F_DD) — possible when a filter escape forced the walk.
	ClassWalkBoth
	// ClassWalkVMMOnly: a 2D walk with only the VMM segment covering
	// the final gPA (F_VD).
	ClassWalkVMMOnly
	// ClassWalkGuestOnly: a 2D walk with only the guest segment
	// covering the gVA (F_GD).
	ClassWalkGuestOnly
	// ClassWalkNeither: a 2D walk with no segment coverage — the full
	// nested-paging miss.
	ClassWalkNeither

	numClasses
)

var classNames = [numClasses]string{
	ClassZeroD:         "zero-d",
	ClassL2Hit:         "l2-hit",
	ClassWalk1D:        "walk-1d",
	ClassWalkBoth:      "walk-both",
	ClassWalkVMMOnly:   "walk-vmm-only",
	ClassWalkGuestOnly: "walk-guest-only",
	ClassWalkNeither:   "walk-neither",
}

func (c MissClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// ParseMissClass is the inverse of String, used by the sample-file
// reader.
func ParseMissClass(s string) (MissClass, bool) {
	for i, n := range classNames {
		if n == s {
			return MissClass(i), true
		}
	}
	return 0, false
}

// MissClasses returns every class in declaration order.
func MissClasses() []MissClass {
	out := make([]MissClass, numClasses)
	for i := range out {
		out[i] = MissClass(i)
	}
	return out
}

// Sample is one recorded L1-miss resolution.
type Sample struct {
	// VPN is the accessed 4K virtual page number (gVA >> 12) — the
	// granularity BadgerTrap attributes misses at, independent of the
	// mapping's page size.
	VPN uint64
	// Size is the resulting translation's effective page size (the
	// smaller of the two dimensions' leaves); 4K for segment and L2
	// resolutions.
	Size addr.PageSize
	// Class is the §VII miss class.
	Class MissClass
	// Scheme is the active translation scheme's registry name.
	Scheme string
	// Refs and Cycles are this miss's page-table memory references and
	// charged cycles — exact per-miss deltas of the MMU's own counters.
	Refs   uint64
	Cycles uint64
	// ASID is the address space the miss occurred in (0 when the cell
	// never context-switches).
	ASID uint16
}

// Sampler records every period-th miss of one simulation cell. It is
// single-goroutine state owned by the cell, exactly like a telemetry
// Local shard: plain decrements on the miss path, merged into the
// shared Profile once, at cell completion.
type Sampler struct {
	period    uint64
	countdown uint64
	start     uint64 // countdown's initial value, restored by Reset
	cell      string
	tenant    int
	samples   []Sample
}

// Tick offers one resolved L1 miss to the stride and reports whether
// this miss is the period-th one to record. It is the entire hot-path
// cost of an enabled sampler — a decrement and a branch, small enough
// to inline — so callers build Record's arguments only for the 1-in-N
// sampled misses. The stride is deterministic — no clock, no RNG — so
// the sample stream is a pure function of the cell's miss stream and
// the sampler's seed.
func (s *Sampler) Tick() bool {
	s.countdown--
	if s.countdown != 0 {
		return false
	}
	s.countdown = s.period
	return true
}

// Refund re-arms the fire the last Tick consumed, for callers that
// tick before the walk and then see it fault: the fault stays out of
// the sample stream, and the next offered miss records instead of the
// scheduled sample being silently absorbed.
func (s *Sampler) Refund() { s.countdown = 1 }

// Record stores the sampled miss Tick selected.
func (s *Sampler) Record(scheme string, vpn uint64, size addr.PageSize, class MissClass, refs, cycles uint64, asid uint16) {
	s.samples = append(s.samples, Sample{
		VPN:    vpn,
		Size:   size,
		Class:  class,
		Scheme: scheme,
		Refs:   refs,
		Cycles: cycles,
		ASID:   asid,
	})
}

// Miss is Tick + Record in one call, for callers whose argument setup
// is already cheap (tests, synthetic feeds).
func (s *Sampler) Miss(scheme string, vpn uint64, size addr.PageSize, class MissClass, refs, cycles uint64, asid uint16) {
	if s.Tick() {
		s.Record(scheme, vpn, size, class, refs, cycles, asid)
	}
}

// Reset discards recorded samples and rewinds the stride to its seeded
// phase — the warmup boundary does this so samples describe exactly the
// measured interval, mirroring the MMU counter reset.
func (s *Sampler) Reset() {
	s.samples = s.samples[:0]
	s.countdown = s.start
}

// Len returns the number of samples recorded so far.
func (s *Sampler) Len() int { return len(s.samples) }

// Samples exposes the recorded stream (read-only by convention).
func (s *Sampler) Samples() []Sample { return s.samples }

// CellKey identifies one sample stream: a simulation cell (typically
// "workload/config") and, for multi-tenant studies, the tenant index.
type CellKey struct {
	Cell   string
	Tenant int
}

// Profile is an active walk-sampling run: the sampling period plus the
// committed streams of every completed cell. One Profile is installed
// process-wide by Enable, like telemetry's current run.
type Profile struct {
	period uint64

	mu sync.Mutex
	// streams holds every committed stream per cell key. A key can
	// legitimately receive more than one stream (report sections may
	// simulate the same workload/config cell); streams under one key are
	// sorted canonically at snapshot time so the Dump never depends on
	// completion order.
	streams map[CellKey][][]Sample
}

// DefaultPeriod is the sampling period used when a caller enables
// sampling without choosing one. At 1-in-64 the sampled gups cell stays
// within the 3% observation-overhead bound scripts/overheadgate.sh
// enforces (EXPERIMENTS.md records the measured ratio).
const DefaultPeriod = 64

var active atomic.Pointer[Profile]

// Enable installs a process-wide profile sampling one in period misses
// (period < 1 selects DefaultPeriod) and returns it. It replaces any
// previously active profile.
func Enable(period uint64) *Profile {
	if period < 1 {
		period = DefaultPeriod
	}
	p := &Profile{period: period, streams: make(map[CellKey][][]Sample)}
	active.Store(p)
	return p
}

// Enabled returns the active profile, nil when sampling is off. Cells
// check it once at setup time, never per event.
func Enabled() *Profile { return active.Load() }

// Stop deactivates the profile; committed data remains readable through
// the *Profile handle. Safe to call more than once.
func (p *Profile) Stop() { active.CompareAndSwap(p, nil) }

// Period returns the sampling period N (one sample per N misses).
func (p *Profile) Period() uint64 { return p.period }

// Sampler builds the per-cell sampler for one simulation cell. seed
// phases the stride (countdown starts at seed mod period + 1) so
// co-scheduled cells don't sample in lockstep; it must derive from the
// cell's spec alone to keep output machine-independent.
func (p *Profile) Sampler(cell string, tenant int, seed uint64) *Sampler {
	start := seed%p.period + 1
	return &Sampler{
		period:    p.period,
		countdown: start,
		start:     start,
		cell:      cell,
		tenant:    tenant,
	}
}

// Commit folds a completed cell's stream into the profile — the single
// point where sampling touches shared state, one lock acquisition per
// cell. The sampler stays usable (its samples are copied).
func (p *Profile) Commit(s *Sampler) {
	if s == nil || p == nil {
		return
	}
	stream := append([]Sample(nil), s.samples...)
	key := CellKey{Cell: s.cell, Tenant: s.tenant}
	p.mu.Lock()
	p.streams[key] = append(p.streams[key], stream)
	p.mu.Unlock()
}

// CellDump is one cell's committed samples, streams concatenated in
// canonical order.
type CellDump struct {
	Cell    string
	Tenant  int
	Samples []Sample
}

// Dump is a deterministic point-in-time reading of a profile: cells
// sorted by name then tenant, and multiple streams per cell ordered
// canonically (by content), so two runs that simulated the same cells
// produce identical Dumps regardless of completion order.
type Dump struct {
	SchemaVersion int
	Period        uint64
	Cells         []CellDump
}

// NumSamples counts every sample in the dump.
func (d Dump) NumSamples() int {
	n := 0
	for _, c := range d.Cells {
		n += len(c.Samples)
	}
	return n
}

// Snapshot assembles the profile's committed streams into a Dump.
func (p *Profile) Snapshot() Dump {
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]CellKey, 0, len(p.streams))
	for k := range p.streams {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Cell != keys[j].Cell {
			return keys[i].Cell < keys[j].Cell
		}
		return keys[i].Tenant < keys[j].Tenant
	})
	d := Dump{SchemaVersion: SchemaVersion, Period: p.period}
	for _, k := range keys {
		streams := p.streams[k]
		if len(streams) > 1 {
			// Canonical stream order: identical specs produce identical
			// streams (order is then irrelevant); differing streams sort by
			// content, making the concatenation completion-order-free.
			streams = append([][]Sample(nil), streams...)
			sort.Slice(streams, func(i, j int) bool { return lessStream(streams[i], streams[j]) })
		}
		var all []Sample
		for _, st := range streams {
			all = append(all, st...)
		}
		d.Cells = append(d.Cells, CellDump{Cell: k.Cell, Tenant: k.Tenant, Samples: all})
	}
	return d
}

// lessStream orders sample streams lexicographically by field.
func lessStream(a, b []Sample) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			x, y := a[i], b[i]
			switch {
			case x.VPN != y.VPN:
				return x.VPN < y.VPN
			case x.Cycles != y.Cycles:
				return x.Cycles < y.Cycles
			case x.Refs != y.Refs:
				return x.Refs < y.Refs
			case x.Class != y.Class:
				return x.Class < y.Class
			case x.Scheme != y.Scheme:
				return x.Scheme < y.Scheme
			case x.Size != y.Size:
				return x.Size < y.Size
			default:
				return x.ASID < y.ASID
			}
		}
	}
	return len(a) < len(b)
}
