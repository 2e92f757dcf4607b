package mmu

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/pagetable"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/stats_golden.json from the current walkers")

// The golden determinism suite pins what every scheme computes, not
// how: each conformance fixture, under the cold (caches off) and the
// default (caches on) hardware configuration, runs one fixed seeded
// script of accesses, demand faults, remaps and invalidations, once
// per event and once through TranslateBlock, with a period-1 sampler
// attached. The SHA-256 digests of the final Stats, of every access's
// Result and of the sample stream must equal the checked-in ones, so a
// refactor of the walkers that changes any modeled outcome fails here.
// After an intended behaviour change, regenerate with
//
//	go test ./internal/mmu -run TestStatsGolden -update-golden

// Golden-script address layout. The paged and faulting regions lie
// outside every fixture's guest segment (which covers 0x400000-0x600000).
const (
	goldenPaged    = 0x10000000 // 192 4K pages mapped in both address spaces
	goldenPagedN   = 192
	goldenLarge    = 0x40000000 // one guest 2M leaf
	goldenFaulting = 0x20000000 // 32 pages left unmapped: demand faults
	goldenFaultN   = 32
	goldenOps      = 6000
)

// goldenOp kinds.
const (
	gAccess = iota
	gFlush
	gInvlPage
	gRemap
	gSwitchASID
	gSwitch
	gFlushASID
	gInvalidateNested
	gEscapeGuest
	gEscapeVMM
)

type goldenOp struct {
	kind int
	va   uint64
	arg  uint64
}

// goldenScript builds the fixture's op script from a fixed xorshift
// seed; only the fixture's probe addresses parameterize it.
func goldenScript(fx schemeFixture) []goldenOp {
	x := uint64(0x9E3779B97F4A7C15)
	pick := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	var script []goldenOp
	prev := uint64(goldenPaged)
	for i := 0; i < goldenOps; i++ {
		// The hot paged window (80 pages) overflows the 64-entry L1 but
		// fits the L2, and slides every 500 ops.
		window := uint64(i/500) * 37 % (goldenPagedN - 80)
		op := goldenOp{kind: gAccess}
		switch p := pick(1000); {
		case p < 950:
			off := pick(512) * 8
			switch q := pick(20); {
			case q < 3: // same page as the last access
				op.va = prev&^(addr.PageSize4K-1) + off
			case q < 12:
				op.va = goldenPaged + (window+pick(80))<<12 + off
			case q < 14:
				op.va = fx.uncovered&^(addr.PageSize4K-1) + pick(4)<<12 + off
			case q < 16 && fx.covered != 0:
				op.va = fx.covered&^(addr.PageSize4K-1) + pick(64)<<12 + off
			case q < 18:
				op.va = goldenLarge + pick(512)<<12 + off
			default:
				op.va = goldenFaulting + pick(goldenFaultN)<<12 + off
			}
			prev = op.va
		case p < 951:
			op.kind = gFlush
		case p < 961:
			op.kind, op.va = gInvlPage, goldenPaged+(window+pick(80))<<12
		case p < 969:
			op.kind, op.va, op.arg = gRemap, goldenPaged+(window+pick(80))<<12, 0xE00000+pick(256)<<12
		case p < 974:
			op.kind = gSwitchASID
		case p < 975:
			op.kind = gSwitch
		case p < 980:
			op.kind, op.arg = gFlushASID, pick(2)
		case p < 981:
			op.kind, op.arg = gInvalidateNested, pick(goldenPagedN)
		case p < 999 && fx.covered != 0:
			op.kind, op.va = gEscapeGuest, fx.covered&^(addr.PageSize4K-1)+pick(64)<<12
		case p < 999:
			op.kind, op.va = gInvlPage, fx.uncovered
		default:
			op.kind, op.arg = gEscapeVMM, pick(4096)<<12
		}
		script = append(script, op)
	}
	return script
}

// goldenState is one fixture stack plus a second address space whose
// paged region maps to different gPAs.
type goldenState struct {
	e      *env
	tables [2]*pagetable.Table
	cur    int
}

func newGoldenState(t *testing.T, fx schemeFixture, cfg Config) *goldenState {
	t.Helper()
	e := fx.build(t, cfg)
	ptB, err := pagetable.New(e.guestMem)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < goldenPagedN; i++ {
		if err := e.gPT.Map(goldenPaged+i<<12, 0x100000+i<<12, addr.Page4K); err != nil {
			t.Fatal(err)
		}
		if err := ptB.Map(goldenPaged+i<<12, 0x300000+i<<12, addr.Page4K); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.gPT.Map(goldenLarge, 0x600000, addr.Page2M); err != nil {
		t.Fatal(err)
	}
	sampleEverything(e.m)
	return &goldenState{e: e, tables: [2]*pagetable.Table{e.gPT, ptB}}
}

// service handles a fault the way the OS/VMM would: a guest fault maps
// the page (segment-covered pages at their segment gPA; every fourth
// faulting-region page past the nested backing, so its retry faults
// in the nested dimension), a nested fault maps the gPA page.
func (s *goldenState) service(t *testing.T, f *Fault) {
	t.Helper()
	page := f.Addr &^ (addr.PageSize4K - 1)
	if f.Kind == FaultNested {
		if err := s.e.nPT.Map(page, 0x3000000+page-0x1800000, addr.Page4K); err != nil {
			t.Fatalf("servicing nested fault at %#x: %v", page, err)
		}
		return
	}
	var gpa uint64
	switch seg := s.e.m.GuestSegment(); {
	case seg.Enabled() && seg.Contains(page):
		gpa = seg.Translate(page)
	case page>>12&3 == 3:
		gpa = 0x1800000 + (page>>12&0xFF)<<12
	default:
		gpa = 0xC00000 + (page>>12&0xFF)<<12
	}
	if err := s.tables[s.cur].Map(page, gpa, addr.Page4K); err != nil {
		t.Fatalf("servicing guest fault at %#x: %v", page, err)
	}
}

// apply performs one non-access op.
func (s *goldenState) apply(t *testing.T, op goldenOp) {
	t.Helper()
	m := s.e.m
	switch op.kind {
	case gFlush:
		m.FlushTLBs()
	case gInvlPage:
		m.InvalidatePage(op.va, addr.Page4K)
	case gRemap:
		if err := s.tables[s.cur].Remap(op.va, op.arg); err != nil {
			t.Fatal(err)
		}
		m.InvalidatePage(op.va, addr.Page4K)
	case gSwitchASID:
		s.cur = 1 - s.cur
		m.ContextSwitchASID(s.tables[s.cur], m.GuestSegment(), uint16(s.cur))
	case gSwitch:
		s.cur = 1 - s.cur
		m.ContextSwitch(s.tables[s.cur], m.GuestSegment())
	case gFlushASID:
		m.FlushASID(uint16(op.arg))
	case gInvalidateNested:
		if err := s.e.nPT.Remap(0x100000+op.arg<<12, 0x3800000+op.arg<<12); err != nil {
			t.Fatal(err)
		}
		m.InvalidateNested()
	case gEscapeGuest:
		m.GuestEscapeFilter().Insert(op.va >> addr.PageShift4K)
		if _, _, ok := s.tables[s.cur].Translate(op.va); !ok {
			if err := s.tables[s.cur].Map(op.va, m.GuestSegment().Translate(op.va), addr.Page4K); err != nil {
				t.Fatal(err)
			}
		}
		m.InvalidatePage(op.va, addr.Page4K)
	case gEscapeVMM:
		m.VMMEscapeFilter().Insert(op.arg >> addr.PageShift4K)
		m.InvalidateNested()
	}
}

// runPerEvent drives the script one Translate at a time.
func (s *goldenState) runPerEvent(t *testing.T, script []goldenOp) []Result {
	t.Helper()
	var out []Result
	for _, op := range script {
		if op.kind != gAccess {
			s.apply(t, op)
			continue
		}
		for attempt := 0; ; attempt++ {
			res, fault := s.e.m.Translate(op.va)
			if fault == nil {
				out = append(out, res)
				break
			}
			if attempt == 3 {
				t.Fatalf("va %#x still faulting: %v", op.va, fault)
			}
			s.service(t, fault)
		}
	}
	return out
}

// runBlock drives the script through TranslateBlock, one block per
// maximal run of accesses.
func (s *goldenState) runBlock(t *testing.T, script []goldenOp) []Result {
	t.Helper()
	var out []Result
	var run []uint64
	flush := func() {
		evs := accessEvents(run)
		sub := make([]Result, len(evs))
		for done, faults := 0, 0; done < len(evs); {
			n, fault := s.e.m.TranslateBlock(evs[done:], sub[done:])
			done += n
			if fault == nil {
				continue
			}
			if faults++; faults > 3*len(evs) {
				t.Fatalf("block still faulting: %v", fault)
			}
			s.service(t, fault)
		}
		out = append(out, sub...)
		run = run[:0]
	}
	for _, op := range script {
		if op.kind == gAccess {
			run = append(run, op.va)
			continue
		}
		flush()
		s.apply(t, op)
	}
	flush()
	return out
}

// goldenDigest is one run's fingerprint.
type goldenDigest struct {
	Stats   string `json:"stats"`
	Results string `json:"results"`
	Samples string `json:"samples"`
}

func (s *goldenState) digest(results []Result) goldenDigest {
	hash := func(write func(w io.Writer)) string {
		h := sha256.New()
		write(h)
		return hex.EncodeToString(h.Sum(nil))
	}
	return goldenDigest{
		Stats: hash(func(w io.Writer) { fmt.Fprintf(w, "%+v", s.e.m.Stats()) }),
		Results: hash(func(w io.Writer) {
			for _, r := range results {
				fmt.Fprintf(w, "%+v\n", r)
			}
		}),
		Samples: hash(func(w io.Writer) {
			for _, smp := range s.e.m.sampler.Samples() {
				fmt.Fprintf(w, "%+v\n", smp)
			}
		}),
	}
}

// TestStatsGolden runs the golden script over every registered
// scheme's fixture and compares the digests against
// testdata/stats_golden.json.
func TestStatsGolden(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{{"cold", coldConfig()}, {"warm", Config{}}}
	got := make(map[string]goldenDigest)
	for _, name := range SchemeNames() {
		fx, ok := conformanceFixtures[Mode(name)]
		if !ok {
			t.Fatalf("scheme %q has no conformance fixture", name)
		}
		script := goldenScript(fx)
		for _, c := range configs {
			per := newGoldenState(t, fx, c.cfg)
			blk := newGoldenState(t, fx, c.cfg)
			perDigest := per.digest(per.runPerEvent(t, script))
			blkDigest := blk.digest(blk.runBlock(t, script))
			if perDigest != blkDigest {
				t.Errorf("%s/%s: per-event and block runs diverge:\n%+v\n%+v", name, c.name, perDigest, blkDigest)
			}
			if st := per.e.m.Stats(); st.GuestFaults == 0 || st.Walks == 0 || st.L1Hits == 0 {
				t.Errorf("%s/%s: script missed a path: %+v", name, c.name, st)
			}
			got[name+"/"+c.name+"/per-event"] = perDigest
			got[name+"/"+c.name+"/block"] = blkDigest
		}
	}

	path := filepath.Join("testdata", "stats_golden.json")
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	var want map[string]goldenDigest
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d runs, suite produced %d", len(want), len(got))
	}
	for k, g := range got {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: no golden digest (regenerate with -update-golden)", k)
		} else if w != g {
			t.Errorf("%s: digests changed:\ngot  %+v\nwant %+v", k, g, w)
		}
	}
}
