package experiments

import (
	"sync"

	"vdirect/internal/workload"
)

// traceKey names one generated trace: a workload at one sizing.
type traceKey struct {
	name string
	cfg  workload.Config
}

// traceShare generates each distinct trace of a fan-out once and hands
// every cell its own Fork of it. The cell list is counted up front; the
// first cell to ask for a trace generates it under the entry's lock,
// and the entry drops its reference when the last counted cell has
// taken its fork. Cells that share a trace sit next to each other in
// every fan-out, so about one trace per busy worker is live at a time,
// and nothing outlives the fan-out.
type traceShare map[traceKey]*sharedTrace

type sharedTrace struct {
	mu   sync.Mutex
	w    workload.Workload
	left int // counted cells yet to take a fork
}

// shareTraces counts the trace each of a fan-out's n cells will ask
// for; cells may share a key.
func shareTraces(n int, key func(i int) traceKey) traceShare {
	s := make(traceShare)
	for i := 0; i < n; i++ {
		k := key(i)
		e := s[k]
		if e == nil {
			e = &sharedTrace{}
			s[k] = e
		}
		e.left++
	}
	return s
}

// fork returns a private, rewound cursor over k's trace. Each counted
// use calls it once; k must be one of the counted keys.
func (s traceShare) fork(k traceKey) workload.Workload {
	e := s[k]
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.w == nil {
		e.w = workload.New(k.name, k.cfg)
	}
	w := e.w.Fork()
	if e.left--; e.left == 0 {
		e.w = nil
	}
	return w
}

// classOf reports a workload's class from a minimal instance.
func classOf(wl string) workload.Class {
	return workload.New(wl, workload.Config{MemoryMB: 1, Ops: 1}).Class()
}
