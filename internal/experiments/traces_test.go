package experiments

import (
	"reflect"
	"sync"
	"testing"

	"vdirect/internal/sched"
	"vdirect/internal/stats"
	"vdirect/internal/workload"
)

// runCell is the unshared reference: one cell through Run, which
// generates its own trace.
func runCell(t *testing.T, wl, label string, edit func(*Spec)) Result {
	t.Helper()
	spec, err := ParseConfig(label)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload = wl
	spec.WL = Small.WLConfig(classOf(wl), 1)
	if edit != nil {
		edit(&spec)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSharedTracesMatchPerCellRuns: every fan-out that shares one
// trace among its cells returns exactly what a loop of per-cell Run
// calls returns, at any parallelism.
func TestSharedTracesMatchPerCellRuns(t *testing.T) {
	wls := []string{"gups", "memcached"}

	t.Run("grid", func(t *testing.T) {
		configs := []string{"4K", "4K+4K", "DD", "4K+VD"}
		var want []Row
		for _, wl := range wls {
			for _, label := range configs {
				res := runCell(t, wl, label, nil)
				want = append(want, Row{Workload: wl, Config: label, Overhead: res.Overhead, Result: res})
			}
		}
		for _, p := range []int{1, 4} {
			got, err := RunGridOpts(sched.Config{Parallelism: p}, wls, configs, Small, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("parallelism %d: grid rows differ from per-cell runs", p)
			}
		}
	})

	t.Run("figure13", func(t *testing.T) {
		const trials = 2
		bad := []int{1, 4}
		var want []Fig13Point
		for _, wl := range workload.BigMemoryNames() {
			clean := runCell(t, wl, "DD", nil).ExecutionCycles()
			for _, n := range bad {
				var samples []float64
				for trial := 0; trial < trials; trial++ {
					res := runCell(t, wl, "DD", func(s *Spec) {
						s.BadPages, s.BadPageSeed = n, uint64(trial+1)
					})
					samples = append(samples, res.ExecutionCycles()/clean)
				}
				want = append(want, Fig13Point{Workload: wl, BadPages: n, Normalized: stats.Summarize(samples)})
			}
		}
		got, err := Figure13Opts(sched.Config{Parallelism: 4}, Small, trials, bad)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("figure 13 points differ from per-cell runs:\ngot:  %+v\nwant: %+v", got, want)
		}
	})

	t.Run("schemes", func(t *testing.T) {
		var want []FlatRow
		hw := func(s *Spec) { s.MMU = schemeStudyHardware() }
		for _, wl := range wls {
			want = append(want, FlatRow{Workload: wl, Base: runCell(t, wl, "4K+4K", hw), Flat: runCell(t, wl, "4K+FL", hw)})
		}
		got, err := SchemesStudy(sched.Config{Parallelism: 4}, Small, wls)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("schemes study rows differ from per-cell runs")
		}
	})

	t.Run("shadow", func(t *testing.T) {
		var want []ShadowResult
		for _, wl := range []string{"memcached", "streamcluster"} {
			tn := runCell(t, wl, "4K", nil).ExecutionCycles()
			vd := runCell(t, wl, "4K+VD", nil).ExecutionCycles()
			sh, err := runShadow(workload.New(wl, Small.WLConfig(classOf(wl), 1)))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ShadowResult{
				Workload:          wl,
				ShadowSlowdown:    (sh.total - tn) / tn,
				VMMDirectSlowdown: (vd - tn) / tn,
				Exits:             sh.exits,
			})
		}
		got, err := ShadowStudyOpts(sched.Config{Parallelism: 4}, Small, []string{"memcached", "streamcluster"})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shadow study rows differ from per-cell runs:\ngot:  %+v\nwant: %+v", got, want)
		}
	})
}

// TestTraceShareDropsAfterLastFork pins the lifetime contract: a key's
// trace is generated once, every counted use gets an independent
// rewound fork, and the share holds no trace once the last counted use
// has taken its fork.
func TestTraceShareDropsAfterLastFork(t *testing.T) {
	key := traceKey{"memcached", Small.WLConfig(workload.BigMemory, 1)}
	const uses = 5
	traces := shareTraces(uses, func(int) traceKey { return key })
	forks := make([]workload.Workload, uses)
	var wg sync.WaitGroup
	for i := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			forks[i] = traces.fork(key)
		}()
	}
	wg.Wait()
	if traces[key].w != nil || traces[key].left != 0 {
		t.Errorf("share still holds the trace after its last fork (left=%d)", traces[key].left)
	}
	for i, f := range forks[1:] {
		if f == forks[0] {
			t.Fatalf("fork %d is the same cursor as fork 0", i+1)
		}
	}
	want := workload.New(key.name, key.cfg)
	for i := 0; i < 1000; i++ {
		ev, _ := want.Next()
		for j, f := range forks {
			if got, _ := f.Next(); got != ev {
				t.Fatalf("fork %d event %d: %+v, want %+v", j, i, got, ev)
			}
		}
	}
}
