package main

// The traced form of one simulation cell, reassembled from the public
// API of vmm, guestos, mmu and replay step for step as
// experiments.RunWorkload assembles and replays it, with a span around
// each call into a layer. The traced run's Stats must equal the
// untraced run's exactly; that check is what proves this file and the
// harness run the same program.

import (
	"fmt"
	"time"

	"vdirect/internal/addr"
	"vdirect/internal/experiments"
	"vdirect/internal/guestos"
	"vdirect/internal/mmu"
	"vdirect/internal/perfmodel"
	"vdirect/internal/physmem"
	"vdirect/internal/replay"
	"vdirect/internal/telemetry/walkprof"
	"vdirect/internal/trace"
	"vdirect/internal/vmm"
	"vdirect/internal/workload"
)

// cellEnv is the assembled stack of one cell.
type cellEnv struct {
	w    workload.Workload
	m    *mmu.MMU
	proc *guestos.Process
	mem  *physmem.Memory // host memory (machine memory when native)
}

// tracedCell builds and replays one cell under tr and returns the
// harness's Result for it.
func tracedCell(spec experiments.Spec, tr *tracer) (experiments.Result, error) {
	start := time.Now()
	t := time.Now()
	w := workload.New(spec.Workload, spec.WL)
	tr.workloadNew += time.Since(t)
	if spec.WarmupFrac == 0 {
		spec.WarmupFrac = 0.2
	}
	t = time.Now()
	e, err := buildCell(spec, w, tr)
	tr.build += time.Since(t)
	if err != nil {
		return experiments.Result{}, fmt.Errorf("building %s/%s: %w", spec.Workload, spec.Label, err)
	}
	if got := e.m.Mode(); got != spec.Mode {
		return experiments.Result{}, fmt.Errorf("built mode %v, wanted %v", got, spec.Mode)
	}
	res, err := replayCell(spec, e, tr)
	tr.observeFrag(e.mem.FragStats())
	tr.busy += time.Since(start)
	return res, err
}

// buildCell mirrors experiments' stack builder for the specs the
// benchmark runs (no bad-page injection).
func buildCell(spec experiments.Spec, w workload.Workload, tr *tracer) (*cellEnv, error) {
	scheme, err := mmu.SchemeByName(string(spec.Mode))
	if err != nil {
		return nil, err
	}
	req := scheme.Requirements()
	prim := w.PrimaryRegion()
	backing := addr.AlignUp(prim.Size, spec.GuestPage.Bytes()) + spec.GuestPage.Bytes()
	guestSize := addr.AlignUp(backing+160<<20, spec.NestedPage.Bytes())

	e := &cellEnv{w: w, m: mmu.New(spec.MMU)}
	var kernel *guestos.Kernel
	var vm *vmm.VM
	if !req.Virtualized {
		t := time.Now()
		e.mem = physmem.New(physmem.Config{Name: "machine", Size: guestSize})
		tr.createVM += time.Since(t)
		t = time.Now()
		kernel = guestos.NewKernel(e.mem, nil)
		tr.guestMap += time.Since(t)
	} else {
		hostSize := addr.AlignUp(guestSize+guestSize/4+spec.NestedPage.Bytes()+256<<20, addr.PageSize4K)
		t := time.Now()
		h := vmm.NewHost(hostSize)
		vm, err = h.CreateVM(vmm.VMConfig{
			Name:              spec.Workload,
			MemorySize:        guestSize,
			NestedPageSize:    spec.NestedPage,
			ContiguousBacking: req.ContiguousBacking,
		})
		tr.createVM += time.Since(t)
		if err != nil {
			return nil, err
		}
		e.mem = h.Mem
		t = time.Now()
		kernel = guestos.NewKernel(vm.GuestMem, vm)
		tr.guestMap += time.Since(t)
		e.m.SetNestedPageTable(vm.NPT)
		e.m.SetFlatNested(req.FlattenedNested)
	}

	// guest times one guestos call.
	guest := func(f func() error) error {
		t := time.Now()
		err := f()
		tr.guestMap += time.Since(t)
		return err
	}
	if err := guest(func() (err error) { e.proc, err = kernel.CreateProcess(w.Name()); return }); err != nil {
		return nil, err
	}
	proc := e.proc
	e.m.SetGuestPageTable(proc.PT)
	if req.VMMSegment {
		seg, err := vm.TryEnableVMMSegment()
		if err != nil {
			return nil, err
		}
		e.m.SetVMMSegment(seg)
	}
	if req.GuestSegment {
		if err := guest(func() error { return proc.CreatePrimaryRegionAt(prim) }); err != nil {
			return nil, err
		}
		e.m.SetGuestSegment(proc.Seg)
	} else {
		if err := guest(func() error { return proc.MMapAt(prim) }); err != nil {
			return nil, err
		}
		if err := guest(func() error { return proc.MapRegion(prim, spec.GuestPage) }); err != nil {
			return nil, err
		}
	}
	for _, r := range w.StaticRegions() {
		if r == prim {
			continue
		}
		if err := guest(func() error { return proc.MMapAt(r) }); err != nil {
			return nil, err
		}
	}
	if err := guest(func() error {
		return proc.Prefault(addr.Range{Start: workload.StackBase, Size: 32 << 10})
	}); err != nil {
		return nil, err
	}
	return e, nil
}

// replayCell mirrors the harness's replay of one cell: warmup at the
// analytic boundary, demand-paging retry, unmap plus invalidation on
// Free, and — when walk sampling is on — one sampler per cell.
func replayCell(spec experiments.Spec, e *cellEnv, tr *tracer) (experiments.Result, error) {
	total := e.w.AccessCount()
	warmupAt := uint64(float64(total) * spec.WarmupFrac)
	e.w.Reset()

	var sampler *walkprof.Sampler
	prof := walkprof.Enabled()
	if prof != nil {
		sampler = prof.Sampler(spec.Workload+"/"+spec.Label, 0, spec.WL.Seed)
		e.m.SetWalkSampler(sampler)
	}
	eng := replay.New(e.w, replay.Hooks{
		AccessBlock: func(evs []trace.Event) (int, error) {
			t := time.Now()
			n, err := tracedTranslateBlock(e, evs, tr)
			tr.hooks += time.Since(t)
			return n, err
		},
		Free: func(ev trace.Event) error {
			t0 := time.Now()
			defer func() { tr.hooks += time.Since(t0) }()
			r := addr.Range{Start: uint64(ev.VA), Size: ev.Size}
			t := time.Now()
			err := e.proc.Unmap(r)
			tr.unmap += time.Since(t)
			if err != nil {
				return fmt.Errorf("free at %#x: %w", ev.VA, err)
			}
			t = time.Now()
			for va := r.Start; va < r.End(); va += addr.PageSize4K {
				e.m.InvalidatePage(va, addr.Page4K)
			}
			tr.invalidate += time.Since(t)
			return nil
		},
		Warmup: func() {
			t := time.Now()
			e.m.ResetStats()
			if sampler != nil {
				sampler.Reset()
			}
			tr.hooks += time.Since(t)
		},
	}, replay.Config{WarmupAccesses: warmupAt})
	t := time.Now()
	err := eng.Run()
	tr.engine += time.Since(t)
	tr.events += eng.Counts().Events
	tr.accesses += eng.Counts().Accesses
	if err != nil {
		return experiments.Result{}, err
	}
	measured := eng.Counts().Measured
	st := e.m.Stats()
	tr.observeMMU(e.m, st)
	ideal := float64(measured) * e.w.BaseCPI()
	if sampler != nil {
		prof.Commit(sampler)
	}
	return experiments.Result{
		Spec:        spec,
		Accesses:    measured,
		IdealCycles: ideal,
		WalkCycles:  st.WalkCycles,
		Overhead:    perfmodel.Overhead(float64(st.WalkCycles), ideal),
		Stats:       st,
	}, nil
}

// tracedTranslateBlock is the harness's demand-paging block loop with
// the MMU and fault-service calls timed apart.
func tracedTranslateBlock(e *cellEnv, evs []trace.Event, tr *tracer) (int, error) {
	done, attempt := 0, 0
	for {
		t := time.Now()
		n, fault := e.m.TranslateBlock(evs[done:], nil)
		d := time.Since(t)
		tr.translate += d
		tr.translated += uint64(n)
		tr.blockUS = append(tr.blockUS, float64(d.Nanoseconds())/1e3)
		done += n
		if fault == nil {
			return done, nil
		}
		if n > 0 {
			attempt = 0
		}
		attempt++
		if fault.Kind != mmu.FaultGuest {
			return done, fmt.Errorf("unexpected nested fault at gPA %#x", fault.Addr)
		}
		t = time.Now()
		err := e.proc.HandleFault(fault.Addr)
		tr.fault += time.Since(t)
		tr.faults++
		if err != nil {
			return done, fmt.Errorf("fault at %#x: %w", fault.Addr, err)
		}
		if attempt >= 3 {
			return done, fmt.Errorf("access at %#x still faulting after service", uint64(evs[done].VA))
		}
	}
}
