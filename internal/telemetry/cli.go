// Shared CLI wiring: every cmd binary exposes the same observability
// flags (-trace, -manifest, -listen, -sample, -samples, -version)
// through Flags, starts a Session after flag parsing, and closes it on
// exit — including error exits, so a failed run still flushes its
// trace, manifest, and sample file recording the failure.

package telemetry

import (
	"encoding/json"
	_ "expvar" // registers /debug/vars on the default mux for -listen
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -listen
	"sync"

	"vdirect/internal/telemetry/walkprof"
)

// Flags bundles the observability flags common to the cmd binaries.
type Flags struct {
	Trace    string
	Manifest string
	// Listen serves the full observability endpoint (Prometheus
	// /metrics, JSON /snapshot and /walkprof, net/http/pprof, expvar).
	Listen string
	// Sample enables walkprof sampling at one sample per N L1 misses;
	// SamplesOut writes the collected samples (implies Sample at the
	// default period when Sample is unset).
	Sample     uint64
	SamplesOut string
	Version    bool
}

// Register installs the flags on fs (flag.CommandLine in the binaries).
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace-event JSON file of scheduler cells, report sections and replay phases (open in chrome://tracing or ui.perfetto.dev)")
	fs.StringVar(&f.Manifest, "manifest", "", "write a run-manifest JSON file (config, build info, per-cell timings, metric snapshot) to this path")
	fs.StringVar(&f.Listen, "listen", "", "serve the live observability endpoint on this address: Prometheus text on /metrics, JSON on /snapshot and /walkprof, net/http/pprof and expvar under /debug/")
	fs.Uint64Var(&f.Sample, "sample", 0, "sample one in N resolved TLB misses into the walk profile (walkprof); 0 disables sampling")
	fs.StringVar(&f.SamplesOut, "samples", "", "write collected walk samples (JSON lines) to this path at exit; implies -sample 64 when -sample is unset")
	fs.BoolVar(&f.Version, "version", false, "print build information and exit")
}

// Enabled reports whether any flag requested a telemetry run. Sampling
// flags are deliberately absent: walkprof has its own lifecycle and
// does not need the metrics registry to be live.
func (f Flags) Enabled() bool {
	return f.Trace != "" || f.Manifest != "" || f.Listen != ""
}

// Sampling reports whether the flags request walkprof sampling, and at
// what period.
func (f Flags) Sampling() (period uint64, on bool) {
	if f.Sample > 0 {
		return f.Sample, true
	}
	if f.SamplesOut != "" {
		return walkprof.DefaultPeriod, true
	}
	return 0, false
}

// Session is one binary's telemetry lifetime. An inert Session (no
// telemetry requested) is valid: Close does nothing.
type Session struct {
	run     *Run
	flags   Flags
	profile *walkprof.Profile
}

// Start activates telemetry when any flag asked for it and returns the
// session to Close at exit. config is stamped into the manifest.
func (f Flags) Start(tool string, config map[string]string) (*Session, error) {
	s := &Session{flags: f}
	if period, on := f.Sampling(); on {
		s.profile = walkprof.Enable(period)
	}
	if !f.Enabled() {
		return s, nil
	}
	s.run = StartRun(tool, config, f.Trace != "")
	if f.Listen != "" {
		addr, err := serveObservability(f.Listen)
		if err != nil {
			s.close()
			return nil, err
		}
		fmt.Printf("%s: serving observability on http://%s (/metrics, /snapshot, /walkprof, /debug/pprof/, /debug/vars)\n", tool, addr)
	}
	return s, nil
}

// close deactivates the run and profile without flushing files — the
// Start error path.
func (s *Session) close() {
	if s.run != nil {
		s.run.Stop()
	}
	if s.profile != nil {
		s.profile.Stop()
	}
}

// Run returns the session's run, nil for an inert session.
func (s *Session) Run() *Run {
	if s == nil {
		return nil
	}
	return s.run
}

// Close flushes the trace file, manifest (recording runErr, if any) and
// walk-sample file, then deactivates the run and profile. Safe on nil
// and inert sessions.
func (s *Session) Close(runErr error) error {
	if s == nil {
		return nil
	}
	defer s.close()
	var first error
	if s.profile != nil && s.flags.SamplesOut != "" {
		if err := walkprof.WriteFile(s.flags.SamplesOut, s.profile.Snapshot()); err != nil {
			first = err
		}
	}
	if s.run == nil {
		return first
	}
	if s.flags.Trace != "" && s.run.tracer != nil {
		if err := s.run.tracer.WriteFile(s.flags.Trace, s.run.Tool); err != nil && first == nil {
			first = err
		}
	}
	if s.flags.Manifest != "" {
		if err := s.run.WriteManifest(s.flags.Manifest, runErr); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var obsOnce sync.Once

// serveObservability serves the full observability surface on addr via
// the default mux: Prometheus text on /metrics, the registry snapshot
// as JSON on /snapshot, the live walkprof summary on /walkprof, plus
// the net/http/pprof and expvar handlers the imports registered under
// /debug/. The listener lives for the rest of the process — monitoring
// outlives any one run.
func serveObservability(addr string) (string, error) {
	obsOnce.Do(func() {
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			fmt.Fprint(w, Default().Snapshot().PrometheusText())
		})
		http.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(Default().Snapshot()) //nolint:errcheck // best-effort endpoint
		})
		http.HandleFunc("/walkprof", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			p := walkprof.Enabled()
			if p == nil {
				http.Error(w, `{"error":"walk sampling not enabled; run with -sample or -samples"}`, http.StatusNotFound)
				return
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(walkprof.Summarize(p.Snapshot())) //nolint:errcheck // best-effort endpoint
		})
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: observability listener: %w", err)
	}
	go http.Serve(ln, nil) //nolint:errcheck // best-effort monitoring endpoint
	return ln.Addr().String(), nil
}
