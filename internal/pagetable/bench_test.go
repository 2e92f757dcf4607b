package pagetable

import (
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/physmem"
)

func benchTable(b *testing.B, pages uint64) *Table {
	b.Helper()
	mem := physmem.New(physmem.Config{Name: "b", Size: 1 << 30})
	t, err := New(mem)
	if err != nil {
		b.Fatal(err)
	}
	for p := uint64(0); p < pages; p++ {
		if err := t.Map(p<<12, p<<12, addr.Page4K); err != nil {
			b.Fatal(err)
		}
	}
	return t
}

func BenchmarkWalk4K(b *testing.B) {
	t := benchTable(b, 4096)
	var refs []Ref
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, refs, _ = t.WalkFrom(uint64(i%4096)<<12, 0, refs[:0])
	}
}

func BenchmarkTranslate(b *testing.B) {
	t := benchTable(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Translate(uint64(i%4096) << 12)
	}
}

func BenchmarkMapUnmap(b *testing.B) {
	mem := physmem.New(physmem.Config{Name: "b", Size: 1 << 30})
	t, err := New(mem)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := uint64(i%65536) << 12
		if err := t.Map(va, va, addr.Page4K); err != nil {
			b.Fatal(err)
		}
		if err := t.Unmap(va, addr.Page4K); err != nil {
			b.Fatal(err)
		}
	}
}
