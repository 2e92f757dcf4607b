// The metrics registry: named atomic counters and gauges. Registration
// (name → instrument lookup) takes a mutex; recording never does —
// instruments are plain atomics, and callers on hot paths cache the
// instrument pointer at setup time. Per-walk distributions are not
// kept here: walk sampling (package walkprof) records each sampled
// walk's exact cost.

package telemetry

import (
	"sync"
	"sync/atomic"

	"vdirect/internal/stats"
)

// Counter is a monotonically increasing atomic event count.
type Counter struct{ v atomic.Uint64 }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous atomic value that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry is a name-indexed set of instruments. The zero value is not
// usable; call NewRegistry (or use Default).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.Reset()
	return r
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every instrumented package
// records into. StartRun resets it, so a manifest's metric snapshot
// covers exactly one invocation.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Reset discards every instrument. Pointers handed out earlier keep
// working but no longer appear in snapshots.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
}

// Snapshot is a consistent-enough point-in-time reading of a registry:
// each instrument is read atomically (the set is not frozen, which is
// fine for monotonic counters and end-of-run collection).
type Snapshot struct {
	Counters map[string]uint64 `json:"counters,omitempty"`
	Gauges   map[string]int64  `json:"gauges,omitempty"`
}

// Snapshot reads every instrument. Counter values are accumulated
// through a stats.Counters so the registry and the simulator's flat
// counters share one snapshot representation.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var c stats.Counters
	for name, ctr := range r.counters {
		c.Add(name, ctr.Load())
	}
	s := Snapshot{
		Counters: c.Snapshot(),
		Gauges:   make(map[string]int64, len(r.gauges)),
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	return s
}
