package pagetable

import (
	"testing"
	"testing/quick"

	"vdirect/internal/addr"
	"vdirect/internal/physmem"
	"vdirect/internal/trace"
)

func newTable(t *testing.T) (*Table, *physmem.Memory) {
	t.Helper()
	mem := physmem.New(physmem.Config{Name: "pt", Size: 64 << 20})
	tbl, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, mem
}

func TestMapWalk4K(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Map(0x7f0000001000, 0x2000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	pa, s, refs, ok := tbl.WalkFrom(0x7f0000001234, 0, nil)
	if !ok {
		t.Fatal("walk failed")
	}
	if pa != 0x2234 {
		t.Errorf("pa = %#x, want 0x2234", pa)
	}
	if s != addr.Page4K {
		t.Errorf("size = %v", s)
	}
	if len(refs) != 4 {
		t.Errorf("4K walk made %d references, want 4", len(refs))
	}
	for i, r := range refs {
		if r.Level != i {
			t.Errorf("ref %d at level %d", i, r.Level)
		}
	}
}

func TestWalkReferenceAddressesAreDistinctTablePages(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Map(0x1000, 0x5000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	_, _, refs, ok := tbl.WalkFrom(0x1000, 0, nil)
	if !ok || len(refs) != 4 {
		t.Fatal("walk shape wrong")
	}
	pages := map[uint64]bool{}
	for _, r := range refs {
		pages[r.Addr>>12] = true
	}
	if len(pages) != 4 {
		t.Errorf("walk touched %d distinct table pages, want 4", len(pages))
	}
	if refs[0].Addr>>12 != tbl.Root() {
		t.Error("first reference is not in the root table")
	}
}

func TestMapWalk2M1G(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Map(0x40000000, 0x80000000, addr.Page1G); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x200000, 0x600000, addr.Page2M); err != nil {
		t.Fatal(err)
	}
	pa, s, refs, ok := tbl.WalkFrom(0x40000000+12345, 0, nil)
	if !ok || pa != 0x80000000+12345 || s != addr.Page1G {
		t.Errorf("1G walk: pa=%#x s=%v ok=%v", pa, s, ok)
	}
	if len(refs) != 2 {
		t.Errorf("1G walk made %d refs, want 2", len(refs))
	}
	pa, s, refs, ok = tbl.WalkFrom(0x200000+999, 0, nil)
	if !ok || pa != 0x600000+999 || s != addr.Page2M {
		t.Errorf("2M walk: pa=%#x s=%v ok=%v", pa, s, ok)
	}
	if len(refs) != 3 {
		t.Errorf("2M walk made %d refs, want 3", len(refs))
	}
}

func TestMisalignedMap(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Map(0x1234, 0x2000, addr.Page4K); err != ErrMisaligned {
		t.Errorf("misaligned va err = %v", err)
	}
	if err := tbl.Map(0x1000, 0x2100, addr.Page4K); err != ErrMisaligned {
		t.Errorf("misaligned pa err = %v", err)
	}
	if err := tbl.Map(0x1000, 0x200000, addr.Page2M); err != ErrMisaligned {
		t.Errorf("misaligned 2M va err = %v", err)
	}
}

func TestOverlapRejected(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Map(0x200000, 0x400000, addr.Page2M); err != nil {
		t.Fatal(err)
	}
	// Same va again.
	if err := tbl.Map(0x200000, 0x800000, addr.Page2M); err != ErrOverlap {
		t.Errorf("dup 2M err = %v", err)
	}
	// 4K inside an existing 2M.
	if err := tbl.Map(0x201000, 0x1000, addr.Page4K); err != ErrOverlap {
		t.Errorf("4K under 2M err = %v", err)
	}
	// 2M over existing 4K.
	if err := tbl.Map(0x400000+0x1000, 0x1000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x400000, 0xa00000, addr.Page2M); err != ErrOverlap {
		t.Errorf("2M over 4K err = %v", err)
	}
}

func TestWalkMissRecordsPartialRefs(t *testing.T) {
	tbl, _ := newTable(t)
	_, _, refs, ok := tbl.WalkFrom(0xdead000, 0, nil)
	if ok {
		t.Fatal("walk of unmapped va succeeded")
	}
	if len(refs) != 1 {
		t.Errorf("unmapped walk made %d refs, want 1 (root miss)", len(refs))
	}
	// Map a sibling so intermediate levels exist, then walk a miss that
	// shares upper levels.
	if err := tbl.Map(0x1000, 0x1000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	_, _, refs, ok = tbl.WalkFrom(0x3000, 0, nil)
	if ok || len(refs) != 4 {
		t.Errorf("near-miss walk: ok=%v refs=%d, want 4 refs then fault", ok, len(refs))
	}
}

func TestUnmapAndReclaim(t *testing.T) {
	tbl, _ := newTable(t)
	base := tbl.TablePages()
	if err := tbl.Map(0x1000, 0x1000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if tbl.TablePages() != base+3 {
		t.Errorf("table pages after map = %d, want %d", tbl.TablePages(), base+3)
	}
	if err := tbl.Unmap(0x1000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if tbl.TablePages() != base {
		t.Errorf("table pages after unmap = %d, want %d (reclaimed)", tbl.TablePages(), base)
	}
	if tbl.Mappings() != 0 {
		t.Errorf("mappings = %d", tbl.Mappings())
	}
	if err := tbl.Unmap(0x1000, addr.Page4K); err != ErrNotMapped {
		t.Errorf("double unmap err = %v", err)
	}
}

func TestUnmapSizeClash(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Map(0x200000, 0x400000, addr.Page2M); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Unmap(0x200000, addr.Page4K); err != ErrSizeClash {
		t.Errorf("unmap 4K of 2M err = %v", err)
	}
	if err := tbl.Map(0x1000, 0x1000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Unmap(0x0, addr.Page2M); err != ErrSizeClash {
		t.Errorf("unmap 2M of 4K err = %v", err)
	}
}

func TestSharedIntermediateNotReclaimed(t *testing.T) {
	tbl, _ := newTable(t)
	// Two 4K pages share PML4/PDPT/PD/PT.
	tbl.Map(0x1000, 0x1000, addr.Page4K)
	tbl.Map(0x2000, 0x2000, addr.Page4K)
	pages := tbl.TablePages()
	if err := tbl.Unmap(0x1000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if tbl.TablePages() != pages {
		t.Error("shared tables reclaimed while sibling mapping lives")
	}
	if _, _, ok := tbl.Translate(0x2fff); !ok {
		t.Error("sibling mapping lost")
	}
}

func TestTranslateMatchesWalk(t *testing.T) {
	tbl, _ := newTable(t)
	r := trace.NewRand(5)
	type m struct{ va, pa uint64 }
	var ms []m
	for i := 0; i < 200; i++ {
		va := (r.Uint64n(1<<30) &^ 0xfff)
		pa := (r.Uint64n(1<<26) &^ 0xfff)
		if err := tbl.Map(va, pa, addr.Page4K); err == nil {
			ms = append(ms, m{va, pa})
		}
	}
	for _, x := range ms {
		p1, s1, ok1 := tbl.Translate(x.va + 7)
		p2, s2, _, ok2 := tbl.WalkFrom(x.va+7, 0, nil)
		if !ok1 || !ok2 || p1 != p2 || s1 != s2 {
			t.Fatalf("Translate/Walk disagree at %#x", x.va)
		}
		if p1 != x.pa+7 {
			t.Fatalf("wrong translation %#x -> %#x, want %#x", x.va, p1, x.pa)
		}
	}
}

func TestPromote2M(t *testing.T) {
	tbl, _ := newTable(t)
	// 512 contiguous, 2M-aligned 4K mappings.
	vaBase, paBase := uint64(0x40000000), uint64(0x10000000)
	for i := uint64(0); i < 512; i++ {
		if err := tbl.Map(vaBase+i*4096, paBase+i*4096, addr.Page4K); err != nil {
			t.Fatal(err)
		}
	}
	pagesBefore := tbl.TablePages()
	if err := tbl.Promote2M(vaBase); err != nil {
		t.Fatal(err)
	}
	if tbl.TablePages() != pagesBefore-1 {
		t.Error("PT page not reclaimed by promotion")
	}
	pa, s, ok := tbl.Translate(vaBase + 0x12345)
	if !ok || s != addr.Page2M || pa != paBase+0x12345 {
		t.Errorf("post-promotion: pa=%#x s=%v ok=%v", pa, s, ok)
	}
	if tbl.Mappings() != 1 {
		t.Errorf("mappings = %d, want 1", tbl.Mappings())
	}
}

func TestPromote2MRejectsNonContiguous(t *testing.T) {
	tbl, _ := newTable(t)
	vaBase := uint64(0x40000000)
	for i := uint64(0); i < 512; i++ {
		pa := uint64(0x10000000) + i*4096
		if i == 100 {
			pa = 0x30000000 // break contiguity
		}
		if err := tbl.Map(vaBase+i*4096, pa, addr.Page4K); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Promote2M(vaBase); err != ErrNotPromotable {
		t.Errorf("err = %v, want ErrNotPromotable", err)
	}
	// Partially-populated region is also not promotable.
	tbl2, _ := newTable(t)
	tbl2.Map(vaBase, 0x10000000, addr.Page4K)
	if err := tbl2.Promote2M(vaBase); err != ErrNotPromotable {
		t.Errorf("sparse err = %v", err)
	}
	// Misaligned base physical address.
	tbl3, _ := newTable(t)
	for i := uint64(0); i < 512; i++ {
		tbl3.Map(vaBase+i*4096, 0x10001000+i*4096, addr.Page4K)
	}
	if err := tbl3.Promote2M(vaBase); err != ErrNotPromotable {
		t.Errorf("misaligned frames err = %v", err)
	}
	if err := tbl3.Promote2M(vaBase + 0x1000); err != ErrMisaligned {
		t.Errorf("misaligned va err = %v", err)
	}
}

func TestRemap(t *testing.T) {
	tbl, _ := newTable(t)
	tbl.Map(0x1000, 0x2000, addr.Page4K)
	if err := tbl.Remap(0x1000, 0x9000); err != nil {
		t.Fatal(err)
	}
	pa, _, ok := tbl.Translate(0x1abc)
	if !ok || pa != 0x9abc {
		t.Errorf("after remap pa = %#x", pa)
	}
	if err := tbl.Remap(0x5000, 0x9000); err != ErrNotMapped {
		t.Errorf("remap unmapped err = %v", err)
	}
	tbl.Map(0x200000, 0x400000, addr.Page2M)
	if err := tbl.Remap(0x200000, 0x401000); err != ErrMisaligned {
		t.Errorf("remap misaligned err = %v", err)
	}
}

func TestVisitLeaves(t *testing.T) {
	tbl, _ := newTable(t)
	tbl.Map(0x1000, 0xa000, addr.Page4K)
	tbl.Map(0x200000, 0x400000, addr.Page2M)
	tbl.Map(0x40000000, 0x80000000, addr.Page1G)
	var got []uint64
	tbl.VisitLeaves(func(va, pa uint64, s addr.PageSize) bool {
		got = append(got, va)
		return true
	})
	if len(got) != 3 || got[0] != 0x1000 || got[1] != 0x200000 || got[2] != 0x40000000 {
		t.Errorf("VisitLeaves order = %#v", got)
	}
	// Early stop.
	count := 0
	tbl.VisitLeaves(func(va, pa uint64, s addr.PageSize) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestDestroyReturnsAllFrames(t *testing.T) {
	mem := physmem.New(physmem.Config{Name: "pt", Size: 64 << 20})
	tbl, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	r := trace.NewRand(3)
	for i := 0; i < 300; i++ {
		va := r.Uint64n(1<<40) &^ 0xfff
		tbl.Map(va, uint64(i)<<12, addr.Page4K)
	}
	if err := tbl.Destroy(); err != nil {
		t.Fatal(err)
	}
	if mem.AllocatedFrames() != 0 {
		t.Errorf("leaked %d frames", mem.AllocatedFrames())
	}
}

func TestMapUnmapProperty(t *testing.T) {
	// Property: map then unmap of random disjoint pages leaves the table
	// with only the root allocated and no translations.
	f := func(seed uint64) bool {
		mem := physmem.New(physmem.Config{Name: "prop", Size: 64 << 20})
		tbl, err := New(mem)
		if err != nil {
			return false
		}
		r := trace.NewRand(seed)
		seen := map[uint64]bool{}
		var vas []uint64
		for i := 0; i < 64; i++ {
			va := r.Uint64n(1<<35) &^ 0xfff
			if seen[va] {
				continue
			}
			seen[va] = true
			if tbl.Map(va, uint64(i)<<12, addr.Page4K) != nil {
				return false
			}
			vas = append(vas, va)
		}
		for _, va := range vas {
			if tbl.Unmap(va, addr.Page4K) != nil {
				return false
			}
		}
		return tbl.TablePages() == 1 && tbl.Mappings() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestAllocatorExhaustionSurfaces(t *testing.T) {
	mem := physmem.New(physmem.Config{Name: "tiny", Size: 2 * addr.PageSize4K})
	tbl, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	// Root took 1 frame; mapping needs 3 more intermediate pages.
	if err := tbl.Map(0x1000, 0x1000, addr.Page4K); err == nil {
		t.Error("map with exhausted allocator succeeded")
	}
}

// TestWalkFromSkipAndWalkCache pins WalkFrom's two promises: a skip
// emits exactly the full walk's refs[min(skip, len-1):], and a walk
// served by the walk cache (Probe4K/Emit) equals the cold descent —
// including a cached prefix whose leaf is absent, which must fault with
// the same references.
func TestWalkFromSkipAndWalkCache(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Map(0x400000, 0x9000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0x40000000, 0x200000, addr.Page2M); err != nil {
		t.Fatal(err)
	}
	type walk struct {
		pa   uint64
		s    addr.PageSize
		refs []Ref
		ok   bool
	}
	do := func(va uint64, skip int) walk {
		pa, s, refs, ok := tbl.WalkFrom(va, skip, nil)
		return walk{pa, s, refs, ok}
	}
	same := func(a, b walk) bool {
		if a.pa != b.pa || a.s != b.s || a.ok != b.ok || len(a.refs) != len(b.refs) {
			return false
		}
		for i := range a.refs {
			if a.refs[i] != b.refs[i] {
				return false
			}
		}
		return true
	}
	// 4K leaf (cold, then cached), absent leaf under the cached PT,
	// 2M leaf, and an unmapped PD entry.
	for _, va := range []uint64{0x400123, 0x401000, 0x40012345, 0x80000000} {
		full := do(va, 0)
		if again := do(va, 0); !same(full, again) {
			t.Fatalf("va %#x: cached walk %+v, cold walk %+v", va, again, full)
		}
		for skip := 0; skip <= addr.Levels; skip++ {
			want := full
			want.refs = full.refs[min(skip, len(full.refs)-1):]
			if got := do(va, skip); !same(got, want) {
				t.Fatalf("va %#x skip %d: %+v, want %+v", va, skip, got, want)
			}
		}
		if fp, hit := tbl.Probe4K(va); hit != (full.ok && full.s == addr.Page4K) {
			t.Fatalf("va %#x: Probe4K hit=%v for walk %+v", va, hit, full)
		} else if hit {
			var refs [addr.Levels]uint64
			pa, n := fp.Emit(va, 1, &refs)
			if pa != full.pa || n != 3 || refs[0] != full.refs[1].Addr || refs[2] != full.refs[3].Addr {
				t.Fatalf("va %#x: Emit (%#x, %v, %d) disagrees with %+v", va, pa, refs, n, full)
			}
		}
	}
}
