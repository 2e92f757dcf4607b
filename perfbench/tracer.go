package main

import (
	"runtime/metrics"
	"sort"
	"time"

	"vdirect/internal/host"
	"vdirect/internal/mmu"
	"vdirect/internal/physmem"
)

// tracer accumulates one traced unit's per-layer busy time and counts.
// Every span is taken in this package, around a call into a layer's
// public API: nothing inside the program is instrumented. A tracer is
// owned by one goroutine; the grid gives each cell its own and merges
// them in cell order.
type tracer struct {
	workloadNew time.Duration // workload.New
	createVM    time.Duration // vmm.NewHost + Host.CreateVM (+ physmem.New when native)
	guestMap    time.Duration // guestos kernel/process set-up and mapping calls
	build       time.Duration // whole cell assembly (parent of the two above)
	engine      time.Duration // replay.Engine.Run, hooks included
	hooks       time.Duration // time inside the replay hooks
	translate   time.Duration // MMU.TranslateBlock
	invalidate  time.Duration // MMU.InvalidatePage loops of the Free hook
	fault       time.Duration // Process.HandleFault
	unmap       time.Duration // Process.Unmap
	busy        time.Duration // Σ per-cell wall time; process CPU time of host.Sim.Run

	events     uint64    // replay.Counts.Events
	accesses   uint64    // replay.Counts.Accesses
	translated uint64    // accesses completed by TranslateBlock
	faults     uint64    // HandleFault calls
	blockUS    []float64 // per-TranslateBlock-call wall time, µs

	stats        mmu.Stats // Σ over cells (or guests)
	l2Lookups    uint64
	l2Hits       uint64
	l2Evictions  uint64
	fragIndex    float64 // Σ over cells; divided by fragN
	freeRuns     uint64
	fragN        int
	walkSamples  int
	snapshot     time.Duration // walkprof Snapshot + Write
	newSim       time.Duration
	hostRun      time.Duration
	crossCheck   time.Duration
	checkAccts   time.Duration
	hostResult   *host.Result
	parallelWall time.Duration // wall time of the parallel section
	workers      int
}

// merge folds a cell's tracer into the unit's. Called serially, in
// cell order, after the parallel section has returned.
func (t *tracer) merge(c *tracer) {
	t.workloadNew += c.workloadNew
	t.createVM += c.createVM
	t.guestMap += c.guestMap
	t.build += c.build
	t.engine += c.engine
	t.hooks += c.hooks
	t.translate += c.translate
	t.invalidate += c.invalidate
	t.fault += c.fault
	t.unmap += c.unmap
	t.busy += c.busy
	t.events += c.events
	t.accesses += c.accesses
	t.translated += c.translated
	t.faults += c.faults
	t.blockUS = append(t.blockUS, c.blockUS...)
	addStats(&t.stats, c.stats)
	t.l2Lookups += c.l2Lookups
	t.l2Hits += c.l2Hits
	t.l2Evictions += c.l2Evictions
	t.fragIndex += c.fragIndex
	t.freeRuns += c.freeRuns
	t.fragN += c.fragN
}

// observeMMU records the counters of one finished MMU.
func (t *tracer) observeMMU(m *mmu.MMU, st mmu.Stats) {
	addStats(&t.stats, st)
	lookups, hits, _ := m.L2NestedStats()
	t.l2Lookups += lookups
	t.l2Hits += hits
	t.l2Evictions += m.L2Evictions()
}

func (t *tracer) observeFrag(f physmem.FragReport) {
	t.fragIndex += f.FragIndex
	t.freeRuns += f.FreeRuns
	t.fragN++
}

// addStats adds every counter of b into a.
func addStats(a *mmu.Stats, b mmu.Stats) {
	a.Accesses += b.Accesses
	a.L1Hits += b.L1Hits
	a.L1Misses += b.L1Misses
	a.L2Hits += b.L2Hits
	a.L2Misses += b.L2Misses
	a.ZeroDWalks += b.ZeroDWalks
	a.Walks += b.Walks
	a.WalkMemRefs += b.WalkMemRefs
	a.WalkCycles += b.WalkCycles
	a.SegmentChecks += b.SegmentChecks
	a.GuestSegHits += b.GuestSegHits
	a.VMMSegHits += b.VMMSegHits
	a.NestedTLBHits += b.NestedTLBHits
	a.NestedTLBMisses += b.NestedTLBMisses
	a.NestedWalks += b.NestedWalks
	a.EscapeProbes += b.EscapeProbes
	a.EscapeTaken += b.EscapeTaken
	a.GuestFaults += b.GuestFaults
	a.NestedFaults += b.NestedFaults
	a.MissBoth += b.MissBoth
	a.MissVMMOnly += b.MissVMMOnly
	a.MissGuestOnly += b.MissGuestOnly
	a.MissNeither += b.MissNeither
}

// runtimeSample reads the Go runtime counters the traced run reports.
type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

var runtimeKeys = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: v(0), totalCPU: v(1), allocBytes: v(2)}
}

// layerMetrics turns one traced unit into the per-layer metric set.
// Every name is reported on every workload; a layer the workload does
// not load reads 0.
func (t *tracer) layerMetrics(accesses uint64, rtBefore, rtAfter runtimeSample) map[string]float64 {
	st := t.stats
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	perK := func(a uint64) float64 { return 1000 * ratio(a, st.Accesses) }
	m := map[string]float64{
		"workload.new_s":                     t.workloadNew.Seconds(),
		"vmm.create_vm_s":                    t.createVM.Seconds(),
		"guestos.map_s":                      t.guestMap.Seconds(),
		"experiments.build_s":                t.build.Seconds(),
		"replay.self_s":                      (t.engine - t.hooks).Seconds(),
		"replay.events":                      float64(t.events),
		"mmu.translate_s":                    t.translate.Seconds(),
		"mmu.ns_per_access":                  0,
		"mmu.block_us_p50":                   percentile(t.blockUS, 0.50),
		"mmu.block_us_p99":                   percentile(t.blockUS, 0.99),
		"mmu.invalidate_s":                   t.invalidate.Seconds(),
		"tlb.l1_hit_ratio":                   ratio(st.L1Hits, st.Accesses),
		"tlb.l2_hit_ratio":                   ratio(t.l2Hits, t.l2Lookups),
		"tlb.ntlb_hit_ratio":                 ratio(st.NestedTLBHits, st.NestedTLBHits+st.NestedTLBMisses),
		"tlb.l2_evictions_per_kaccess":       perK(t.l2Evictions),
		"pagetable.walks_per_kaccess":        perK(st.Walks),
		"pagetable.refs_per_walk":            ratio(st.WalkMemRefs, st.Walks),
		"pagetable.nested_walks_per_kaccess": perK(st.NestedWalks),
		"segment.zero_d_frac":                ratio(st.ZeroDWalks, st.L1Misses),
		"escape.taken_ratio":                 ratio(st.EscapeTaken, st.EscapeProbes),
		"guestos.fault_s":                    t.fault.Seconds(),
		"guestos.faults":                     float64(t.faults),
		"guestos.unmap_s":                    t.unmap.Seconds(),
		"walkprof.samples":                   float64(t.walkSamples),
		"walkprof.snapshot_s":                t.snapshot.Seconds(),
		"host.new_sim_s":                     t.newSim.Seconds(),
		"host.run_s":                         t.hostRun.Seconds(),
		"host.cross_check_s":                 t.crossCheck.Seconds(),
		"host.check_accounting_s":            t.checkAccts.Seconds(),
		"physmem.frag_index":                 0,
		"physmem.free_runs":                  0,
		"sched.parallel_eff":                 0,
		"runtime.gc_cpu_frac":                0,
		"runtime.alloc_b_per_access":         0,
	}
	if t.translated > 0 {
		m["mmu.ns_per_access"] = float64(t.translate.Nanoseconds()) / float64(t.translated)
	}
	if t.fragN > 0 {
		m["physmem.frag_index"] = t.fragIndex / float64(t.fragN)
		m["physmem.free_runs"] = float64(t.freeRuns) / float64(t.fragN)
	}
	if t.workers > 0 && t.parallelWall > 0 {
		m["sched.parallel_eff"] = t.busy.Seconds() / (t.parallelWall.Seconds() * float64(t.workers))
	}
	var ops struct{ direct, balloons, hotplugs, retires, shared, cow, migrations, escaped float64 }
	if r := t.hostResult; r != nil {
		ops.direct = float64(r.DirectGuests)
		for _, g := range r.Guests {
			ops.balloons += float64(g.Balloons)
			ops.hotplugs += float64(g.Hotplugs)
			ops.retires += float64(g.Retires)
			ops.shared += float64(g.SharedIn)
			ops.cow += float64(g.CoWBreaks)
			ops.migrations += float64(g.Migrations)
			ops.escaped += float64(g.EscapedPages)
		}
	}
	m["host.direct_guests"] = ops.direct
	m["host.balloons"] = ops.balloons
	m["host.hotplugs"] = ops.hotplugs
	m["host.retires"] = ops.retires
	m["host.shared_in"] = ops.shared
	m["host.cow_breaks"] = ops.cow
	m["host.migrations"] = ops.migrations
	m["host.escaped_pages"] = ops.escaped
	if cpu := rtAfter.totalCPU - rtBefore.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_frac"] = (rtAfter.gcCPU - rtBefore.gcCPU) / cpu
	}
	if accesses > 0 {
		m["runtime.alloc_b_per_access"] = (rtAfter.allocBytes - rtBefore.allocBytes) / float64(accesses)
	}
	return m
}

// percentile returns the p-quantile (nearest rank) of xs; 0 when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median returns the median of xs; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
