package main

import (
	"bytes"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"vdirect/internal/addr"
	"vdirect/internal/experiments"
	"vdirect/internal/host"
	"vdirect/internal/mmu"
	"vdirect/internal/sched"
	"vdirect/internal/telemetry/walkprof"
	"vdirect/internal/workload"
)

// unitOut is what one unit of a workload produced: the work it did, the
// simulated cost, its set-up time and the digests of its outputs.
type unitOut struct {
	accesses    uint64 // trace accesses serviced, warmup included
	walkCycles  uint64 // Σ Stats.WalkCycles
	simAccesses uint64 // Σ Stats.Accesses
	setup       time.Duration
	digests     map[string]string
}

func (u *unitOut) addStats(st mmu.Stats) error {
	u.walkCycles += st.WalkCycles
	u.simAccesses += st.Accesses
	return checkIdentities(st)
}

// benchWorkload is one workload: run executes one unit, untraced when
// tr is nil and traced into tr otherwise. A unit returns an error for
// anything that makes its result unusable; digests are compared by the
// caller.
type benchWorkload struct {
	name string
	run  func(seed uint64, tr *tracer) (unitOut, error)
}

var workloads = []benchWorkload{
	{"gups-2d", func(seed uint64, tr *tracer) (unitOut, error) { return runGups(seed, false, tr) }},
	{"gups-2d-sampled", func(seed uint64, tr *tracer) (unitOut, error) { return runGups(seed, true, tr) }},
	{"paper-grid", runPaperGrid},
	{"host-churn", runHostChurn},
}

// nproc bounds every workload's goroutines.
var nproc = runtime.NumCPU()

// gupsSpec is the gups cell at the figures' medium scale under the 2D
// walk (Base Virtualized, 4K guest pages over 4K nested pages).
func gupsSpec(seed uint64) (experiments.Spec, error) {
	spec, err := experiments.ParseConfig("4K+4K")
	if err != nil {
		return spec, err
	}
	spec.Workload = "gups"
	spec.WL = experiments.Medium.WLConfig(workload.BigMemory, seed)
	return spec, nil
}

// runGups runs the gups cell once, with walk sampling at the default
// period when sampled is set. Sampling is the only observer any unit
// attaches, and only here.
func runGups(seed uint64, sampled bool, tr *tracer) (unitOut, error) {
	out := unitOut{digests: map[string]string{}}
	spec, err := gupsSpec(seed)
	if err != nil {
		return out, err
	}
	var prof *walkprof.Profile
	if sampled {
		prof = walkprof.Enable(walkprof.DefaultPeriod)
		defer prof.Stop()
	}
	var res experiments.Result
	if tr == nil {
		t := time.Now()
		w := workload.New(spec.Workload, spec.WL)
		out.setup = time.Since(t)
		out.accesses = w.AccessCount()
		res, err = experiments.RunWorkload(spec, w)
	} else {
		res, err = tracedCell(spec, tr)
		out.setup = tr.workloadNew
		out.accesses = tr.accesses
	}
	if err != nil {
		return out, err
	}
	if err := out.addStats(res.Stats); err != nil {
		return out, err
	}
	out.digests["stats"] = digest(fmt.Sprintf("%+v", res.Stats))
	if prof != nil {
		t := time.Now()
		d := prof.Snapshot()
		var buf bytes.Buffer
		if err := walkprof.Write(&buf, d); err != nil {
			return out, err
		}
		if tr != nil {
			tr.snapshot += time.Since(t)
			tr.walkSamples = d.NumSamples()
		}
		out.digests["walkprof"] = digest(buf.String())
	}
	return out, nil
}

// The paper grid is Figure 11 plus Figure 12 as paperbench runs them:
// every cell at medium scale, fanned over nproc workers.
type gridFigure struct {
	id, title string
	class     workload.Class
	workloads []string
	configs   []string
}

var gridFigures = []gridFigure{
	{"Figure 11", "big-memory workload overheads", workload.BigMemory, workload.BigMemoryNames(), experiments.Figure11Configs()},
	{"Figure 12", "compute workload overheads", workload.Compute, workload.ComputeNames(), experiments.Figure12Configs()},
}

// runPaperGrid runs one pass of both figures. Its set-up is generating
// each distinct workload's trace once, timed from outside; the figure
// drivers then build every cell, trace included, inside the pass.
func runPaperGrid(seed uint64, tr *tracer) (unitOut, error) {
	out := unitOut{digests: map[string]string{}}
	cfg := sched.Config{Parallelism: nproc}
	t := time.Now()
	for _, f := range gridFigures {
		for _, wl := range f.workloads {
			w := workload.New(wl, experiments.Medium.WLConfig(f.class, seed))
			out.accesses += w.AccessCount() * uint64(len(f.configs))
		}
	}
	out.setup = time.Since(t)
	var stats, rows bytes.Buffer
	for _, f := range gridFigures {
		var fig experiments.Figure
		var err error
		if tr == nil {
			var rs []experiments.Row
			rs, err = experiments.RunGridOpts(cfg, f.workloads, f.configs, experiments.Medium, seed)
			fig = experiments.Figure{ID: f.id, Title: f.title, Rows: rs}
		} else {
			fig, err = tracedGrid(cfg, f, seed, tr)
		}
		if err != nil {
			return out, err
		}
		for _, r := range fig.Rows {
			if err := out.addStats(r.Result.Stats); err != nil {
				return out, fmt.Errorf("%s/%s: %w", r.Workload, r.Config, err)
			}
			fmt.Fprintf(&stats, "%s %s %+v\n", r.Workload, r.Config, r.Result.Stats)
		}
		rows.WriteString(fig.Table().Render())
		rows.WriteString(fig.Grid().Render())
		rows.WriteString(fig.Grid().CSV())
	}
	out.digests["stats"] = digest(stats.String())
	out.digests["rows"] = digest(rows.String())
	return out, nil
}

// tracedGrid is experiments.RunGridOpts with every cell reassembled
// under its own tracer; the tracers merge in cell order afterwards.
func tracedGrid(cfg sched.Config, f gridFigure, seed uint64, tr *tracer) (experiments.Figure, error) {
	type cellOut struct {
		row experiments.Row
		tr  *tracer
	}
	type cell struct{ wl, label string }
	var cells []cell
	for _, wl := range f.workloads {
		for _, label := range f.configs {
			cells = append(cells, cell{wl, label})
		}
	}
	start := time.Now()
	outs, err := sched.Run(cfg, len(cells), func(i int) (cellOut, error) {
		c := cells[i]
		ctr := &tracer{}
		spec, err := experiments.ParseConfig(c.label)
		if err != nil {
			return cellOut{}, err
		}
		t := time.Now()
		class := workload.New(c.wl, workload.Config{MemoryMB: 1, Ops: 1}).Class()
		ctr.workloadNew += time.Since(t)
		spec.Workload = c.wl
		spec.WL = experiments.Medium.WLConfig(class, seed)
		res, err := tracedCell(spec, ctr)
		if err != nil {
			return cellOut{}, fmt.Errorf("%s/%s: %w", c.wl, c.label, err)
		}
		return cellOut{experiments.Row{Workload: c.wl, Config: c.label, Overhead: res.Overhead, Result: res}, ctr}, nil
	})
	tr.parallelWall += time.Since(start)
	tr.workers = cfg.Parallelism
	if err != nil {
		return experiments.Figure{}, err
	}
	fig := experiments.Figure{ID: f.id, Title: f.title}
	for _, o := range outs {
		tr.merge(o.tr)
		fig.Rows = append(fig.Rows, o.row)
	}
	return fig, nil
}

// hostConfig is the host consolidation study's density-6 cell of a
// sweep to 8: the host is sized so 5 guests fit Dual Direct, the sixth
// falls back to Base Virtualized and balloons, and there is still the
// slack for sharing and copy-on-write breaks to fire. The seed varies
// the tenants' traces; the policy engine keeps the study's seed, so
// the same host operations run on every seed. Seed 1 is the study's
// own cell.
func hostConfig(seed uint64) host.Config {
	const density, maxDensity = 6, 8
	cfg := host.Config{
		Guests:          density,
		TenantsPerGuest: 2,
		Workload:        "gups",
		WL:              workload.Config{Seed: seed, MemoryMB: 8, Ops: 50000},
		GuestHeadroom:   32 << 20,
		BalloonFloor:    8 << 20,
		Seed:            density,
		Shards:          min(nproc, density),
	}
	gs := cfg.GuestSize()
	knee := uint64(maxDensity * 5 / 8)
	cfg.HostMemory = addr.AlignUp(knee*gs+gs/2+(16<<20), addr.PageSize4K)
	return cfg
}

// runHostChurn admits and runs one consolidated host. Untraced it runs
// exactly as the study does (cross-check inside Run); traced, the
// cross-check is lifted out of Run so it can be timed on its own.
func runHostChurn(seed uint64, tr *tracer) (unitOut, error) {
	out := unitOut{digests: map[string]string{}}
	t := time.Now()
	cfg := hostConfig(seed) // sizes the host through one workload.New
	if tr != nil {
		tr.workloadNew += time.Since(t)
		cfg.SkipCrossCheck = true
	}
	t = time.Now()
	s, err := host.NewSim(cfg)
	out.setup = time.Since(t)
	if err != nil {
		return out, err
	}
	cpu0 := cpuTime()
	t = time.Now()
	res, err := s.Run()
	if tr != nil {
		tr.hostRun = time.Since(t)
		tr.busy = cpuTime() - cpu0
		tr.parallelWall, tr.workers = tr.hostRun, cfg.Shards
		tr.newSim = out.setup
	}
	if err != nil {
		return out, err
	}
	for i, g := range res.Guests {
		if err := out.addStats(g.Stats); err != nil {
			return out, fmt.Errorf("guest %d: %w", i, err)
		}
		out.accesses += g.Accesses
		if tr != nil {
			tr.observeMMU(s.Guests[i].MMU, g.Stats)
		}
	}
	if tr != nil {
		tr.observeFrag(res.Frag)
		tr.hostResult = &res
		t = time.Now()
		err := s.CrossCheck()
		tr.crossCheck = time.Since(t)
		if err != nil {
			return out, err
		}
		t = time.Now()
		err = s.CheckAccounting()
		tr.checkAccts = time.Since(t)
		if err != nil {
			return out, err
		}
	}
	out.digests["result"] = digest(fmt.Sprintf("%+v", res))
	return out, nil
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
