// Command paperbench regenerates the paper's evaluation: every figure
// and table of §VIII and §IX, printed as text tables (and optionally
// written to files).
//
// Simulation cells fan out across cores (-j, default GOMAXPROCS) with
// progress on stderr; output is byte-identical at any -j because every
// cell owns a private simulation stack, per-cell RNG seeds depend only
// on the cell's spec, and results are emitted in a fixed order.
//
// Usage:
//
//	paperbench                       # everything at medium scale, all cores
//	paperbench -scale full           # the EXPERIMENTS.md setting
//	paperbench -j 1                  # serial run (same bytes, slower)
//	paperbench -only figure11,shadow # a subset
//	paperbench -out results/         # also write one file per section
//	paperbench -cpuprofile cpu.pb    # profile the replay hot path
//	paperbench -trace run.json -manifest run-manifest.json
//	                                 # Chrome trace + run manifest
//	paperbench -sample 64 -samples walks.jsonl
//	                                 # 1-in-64 walk sampling, analyzed
//	                                 # offline with cmd/walkprof (exact
//	                                 # per-walk cost percentiles)
//	paperbench -only walkprof        # walk-level attribution section
//	                                 # (auto-enables sampling)
//	paperbench -only host -shards 4  # whole-host consolidation-density
//	                                 # sweep (fragmentation knee and
//	                                 # escape-filter cost)
//	paperbench -listen :8080         # live /metrics, /snapshot,
//	                                 # /walkprof, /debug/pprof/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"vdirect"
	"vdirect/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

func run() (retErr error) {
	var (
		scaleName  = flag.String("scale", "medium", "simulation scale: small|medium|full")
		only       = flag.String("only", "", "comma-separated section subset (figure1,figure11,figure12,figure13,sectionVIII,breakdown,tableIV,shadow,sharing,energy,tableII,tableIII; naming consolidation, schemes, host, or walkprof also enables that extension study)")
		shards     = flag.Int("shards", 1, "intra-cell shard goroutines for the consolidation and host studies; output is identical at any value")
		density    = flag.Int("density", 8, "host study's maximum consolidation density (guests at the deepest sweep step)")
		outDir     = flag.String("out", "", "directory to write per-section files into")
		trials     = flag.Int("fig13-trials", 30, "trials per escape-filter point")
		jobs       = flag.Int("j", 0, "max concurrently simulated cells (0 = GOMAXPROCS); output is identical at any -j")
		quiet      = flag.Bool("quiet", false, "suppress the cells-done progress line on stderr")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a post-run heap profile to this file (go tool pprof)")
	)
	var tf telemetry.Flags
	tf.Register(flag.CommandLine)
	flag.Parse()

	if tf.Version {
		fmt.Println(telemetry.VersionString("paperbench"))
		return nil
	}

	var scale vdirect.Scale
	switch *scaleName {
	case "small":
		scale = vdirect.ScaleSmall
	case "medium":
		scale = vdirect.ScaleMedium
	case "full":
		scale = vdirect.ScaleFull
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			want[strings.TrimSpace(s)] = true
		}
	}

	// The walkprof section needs sampling on even when no
	// -sample/-samples flag asked for it.
	if want["walkprof"] && tf.Sample == 0 && tf.SamplesOut == "" {
		tf.Sample = 64
	}
	sess, err := tf.Start("paperbench", map[string]string{
		"scale":        *scaleName,
		"j":            fmt.Sprint(*jobs),
		"fig13-trials": fmt.Sprint(*trials),
		"only":         *only,
	})
	if err != nil {
		return err
	}
	defer func() {
		// The manifest records the run's error, so Close comes after
		// retErr settles; its own failure surfaces unless one is already
		// being reported.
		if err := sess.Close(retErr); retErr == nil {
			retErr = err
		}
	}()

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); retErr == nil {
			retErr = err
		}
	}()

	opts := vdirect.Options{
		Parallelism:   *jobs,
		Fig13Trials:   *trials,
		Consolidation: want["consolidation"],
		Schemes:       want["schemes"],
		Walkprof:      want["walkprof"],
		Host:          want["host"],
		HostDensity:   *density,
		Shards:        *shards,
	}
	if !*quiet {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsimulating: %d/%d cells", done, total)
		}
	}
	start := time.Now()
	report, err := vdirect.ReproduceAllOpts(scale, opts)
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	for _, sec := range report.Sections {
		if len(want) > 0 && !want[sec.Name] {
			continue
		}
		fmt.Println(sec.Text)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*outDir, sec.Name+".txt")
			if err := os.WriteFile(path, []byte(sec.Text), 0o644); err != nil {
				return err
			}
			if sec.CSV != "" {
				csvPath := filepath.Join(*outDir, sec.Name+".csv")
				if err := os.WriteFile(csvPath, []byte(sec.CSV), 0o644); err != nil {
					return err
				}
			}
		}
	}
	fmt.Printf("— paperbench completed in %s at %s scale —\n",
		time.Since(start).Round(time.Second), *scaleName)
	return nil
}

// startProfiles begins CPU profiling and arranges the heap profile.
// Callers run the returned stop via defer, so both profiles flush and
// close even when the run fails midway — os.Exit never intervenes.
func startProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuF *os.File
	if cpu != "" {
		cpuF, err = os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() error {
		var first error
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				first = err
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				if first == nil {
					first = err
				}
				return first
			}
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
				first = err
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}
