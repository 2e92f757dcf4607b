// Command perfbench is the repository's benchmark: it runs one workload
// for a fixed time, checks every unit's outputs, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output, one JSON object.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it:
//
//	bash perfbench/run.sh --workload gups-2d --seed 1 --seconds 20 --trace 0
//
// Every unit is checked: an error, a broken Stats identity, output that
// differs from the run's first unit, from the golden digests (default
// seed) or — in a traced run — from the untraced unit, all count as a
// failed unit.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker counts units and compares each one's digests with the
// expected set: the golden digests at the default seed, otherwise the
// first unit that succeeded.
type checker struct {
	want              map[string]string
	attempted, failed int
}

func (c *checker) check(kind string, out unitOut, err error) bool {
	c.attempted++
	if err == nil && c.want != nil {
		if bad := diffDigests(out.digests, c.want); bad != "" {
			err = fmt.Errorf("output differs from the expected digests: %s", bad)
		}
	}
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s unit %d failed: %v\n", kind, c.attempted, err)
		return false
	}
	if c.want == nil {
		c.want = out.digests
	}
	return true
}

func run() error {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "seconds to measure")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	record := flag.Bool("write-golden", false, "record the default seed's output digests into "+goldenPath)
	flag.Parse()

	var wl *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if *record {
		if *seed != defaultSeed {
			return fmt.Errorf("golden digests are recorded for seed %d only", defaultSeed)
		}
		out, err := wl.run(*seed, nil)
		if err != nil {
			return err
		}
		return writeGolden(wl.name, out.digests)
	}
	fp, err := fingerprint()
	if err != nil {
		return err
	}
	fmt.Printf("host: %s\n", fp)
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", wl.name, *seed, *seconds, *traceFlag)

	c := &checker{}
	if *seed == defaultSeed {
		golden, err := loadGolden()
		if err != nil {
			return err
		}
		if c.want = golden[wl.name]; c.want == nil {
			return fmt.Errorf("no golden digests for %s; record them with --write-golden", wl.name)
		}
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *traceFlag == 0 {
		res = measure(wl, *seed, budget, c)
	} else {
		res = measureTraced(wl, *seed, budget, c)
	}
	res.Attempted, res.Failed, res.Correct = c.attempted, c.failed, c.failed == 0
	fmt.Printf("units attempted %d failed %d\n", c.attempted, c.failed)
	if *traceFlag == 0 {
		// Not a JSON metric: it is 0 on a correct run, and the JSON's
		// attempted and failed carry it.
		fmt.Printf("  %-36s %14.6g %s\n", "failed_frac", float64(c.failed)/float64(c.attempted), "frac")
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// measure is the untraced run: one warm-up unit, then units until the
// budget is spent. Each unit starts from a collected heap, so its peak
// heap does not depend on where the previous unit left the collector.
// Only units that pass their checks count toward the metrics.
func measure(wl *benchWorkload, seed uint64, budget time.Duration, c *checker) result {
	peak := startHeapPeak()
	defer peak.stop()
	out, err := wl.run(seed, nil)
	c.check("warm-up", out, err)

	var times, setups, heaps []float64
	var accesses, walkCycles, simAccesses uint64
	var busy time.Duration
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < budget; n++ {
		runtime.GC()
		peak.take()
		t := time.Now()
		out, err := wl.run(seed, nil)
		d := time.Since(t)
		heap := peak.take()
		if !c.check("timed", out, err) {
			continue
		}
		busy += d
		times = append(times, d.Seconds())
		heaps = append(heaps, float64(heap)/(1<<20))
		setups = append(setups, out.setup.Seconds())
		accesses += out.accesses
		walkCycles += out.walkCycles
		simAccesses += out.simAccesses
	}
	fmt.Printf("timed units %d, %.3f s in units (result_s, setup_s and peak_heap_mb are medians of %d samples)\n",
		len(times), busy.Seconds(), len(times))
	m := map[string]metric{
		"accesses_per_s":             {0, "1/s"},
		"result_s":                   {median(times), "s"},
		"setup_s":                    {median(setups), "s"},
		"peak_heap_mb":               {median(heaps), "MB"},
		"sim_walk_cycles_per_access": {0, "cycles"},
	}
	if busy > 0 {
		m["accesses_per_s"] = metric{float64(accesses) / busy.Seconds(), "1/s"}
	}
	if simAccesses > 0 {
		m["sim_walk_cycles_per_access"] = metric{float64(walkCycles) / float64(simAccesses), "cycles"}
	}
	return result{Metrics: m}
}

// measureTraced is the traced run: an untraced reference unit, then
// pairs of one untraced and one traced unit until the budget is spent.
// Each traced unit must reproduce the untraced outputs exactly. Layer
// metrics are medians over the traced units; trace.overhead_frac
// compares the paired units' total times.
func measureTraced(wl *benchWorkload, seed uint64, budget time.Duration, c *checker) result {
	out, err := wl.run(seed, nil)
	c.check("reference", out, err)

	perLayer := map[string][]float64{}
	var plain, traced time.Duration
	start := time.Now()
	for pairs := 0; pairs == 0 || time.Since(start) < budget; pairs++ {
		runtime.GC()
		t := time.Now()
		out, err := wl.run(seed, nil)
		dPlain := time.Since(t)
		okPlain := c.check("untraced", out, err)

		tr := &tracer{}
		runtime.GC()
		rt0 := readRuntime()
		t = time.Now()
		out, err = wl.run(seed, tr)
		dTraced := time.Since(t)
		rt1 := readRuntime()
		if !c.check("traced", out, err) || !okPlain {
			continue
		}
		plain += dPlain
		traced += dTraced
		for k, v := range tr.layerMetrics(out.accesses, rt0, rt1) {
			perLayer[k] = append(perLayer[k], v)
		}
	}
	m := map[string]metric{}
	for k, unit := range layerUnits {
		m[k] = metric{median(perLayer[k]), unit}
	}
	overhead := 0.0
	if plain > 0 {
		overhead = traced.Seconds()/plain.Seconds() - 1
	}
	m["trace.overhead_frac"] = metric{overhead, "frac"}
	fmt.Printf("traced units %d (per-layer values are medians over them)\n", len(perLayer["replay.events"]))
	return result{Metrics: m}
}

// layerUnits gives each per-layer metric its unit.
var layerUnits = map[string]string{
	"workload.new_s":                     "s",
	"vmm.create_vm_s":                    "s",
	"guestos.map_s":                      "s",
	"experiments.build_s":                "s",
	"replay.self_s":                      "s",
	"replay.events":                      "count",
	"mmu.translate_s":                    "s",
	"mmu.ns_per_access":                  "ns",
	"mmu.block_us_p50":                   "us",
	"mmu.block_us_p99":                   "us",
	"mmu.invalidate_s":                   "s",
	"tlb.l1_hit_ratio":                   "ratio",
	"tlb.l2_hit_ratio":                   "ratio",
	"tlb.ntlb_hit_ratio":                 "ratio",
	"tlb.l2_evictions_per_kaccess":       "1/kaccess",
	"pagetable.walks_per_kaccess":        "1/kaccess",
	"pagetable.refs_per_walk":            "refs",
	"pagetable.nested_walks_per_kaccess": "1/kaccess",
	"segment.zero_d_frac":                "frac",
	"escape.taken_ratio":                 "ratio",
	"guestos.fault_s":                    "s",
	"guestos.faults":                     "count",
	"guestos.unmap_s":                    "s",
	"walkprof.samples":                   "count",
	"walkprof.snapshot_s":                "s",
	"host.new_sim_s":                     "s",
	"host.run_s":                         "s",
	"host.cross_check_s":                 "s",
	"host.check_accounting_s":            "s",
	"host.direct_guests":                 "count",
	"host.balloons":                      "count",
	"host.hotplugs":                      "count",
	"host.retires":                       "count",
	"host.shared_in":                     "count",
	"host.cow_breaks":                    "count",
	"host.migrations":                    "count",
	"host.escaped_pages":                 "count",
	"physmem.frag_index":                 "ratio",
	"physmem.free_runs":                  "count",
	"sched.parallel_eff":                 "ratio",
	"runtime.gc_cpu_frac":                "frac",
	"runtime.alloc_b_per_access":         "B",
}

// heapPeak tracks the Go heap's in-use object bytes, sampled every
// millisecond and at every take.
type heapPeak struct {
	quit, done chan struct{}
	peak       atomic.Uint64
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// observe raises the peak to the current heap size.
func (h *heapPeak) observe() {
	v := heapObjects()
	for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
	}
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), done: make(chan struct{})}
	h.peak.Store(heapObjects())
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	return h
}

// take returns the peak since the previous take and starts a new
// interval from the current heap size.
func (h *heapPeak) take() uint64 {
	h.observe()
	return h.peak.Swap(heapObjects())
}

// stop ends sampling and waits for the sampler to exit.
func (h *heapPeak) stop() {
	close(h.quit)
	<-h.done
}

// fingerprint names the host and the code a result was measured on.
// The commit comes from the build's VCS stamp when the tree is a git
// checkout; src, a digest of every Go source and module file under the
// working directory, identifies the code either way.
func fingerprint() (string, error) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	src := hex.EncodeToString(h.Sum(nil))[:16]
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s src=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, src), nil
}
