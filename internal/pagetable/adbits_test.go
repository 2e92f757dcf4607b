package pagetable

import (
	"testing"

	"vdirect/internal/addr"
)

func TestAccessedBitSetByWalk(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Map(0x1000, 0x2000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	was, err := tbl.Accessed(0x1000, false)
	if err != nil {
		t.Fatal(err)
	}
	if was {
		t.Error("fresh mapping already accessed")
	}
	if _, _, _, ok := tbl.WalkFrom(0x1234, 0, nil); !ok {
		t.Fatal("walk failed")
	}
	was, _ = tbl.Accessed(0x1000, true)
	if !was {
		t.Error("walk did not set accessed")
	}
	// Clear-on-read semantics.
	was, _ = tbl.Accessed(0x1000, false)
	if was {
		t.Error("accessed bit not cleared")
	}
	// Translate (the software path) does not set accessed.
	tbl.Translate(0x1234)
	if was, _ := tbl.Accessed(0x1000, false); was {
		t.Error("Translate set accessed")
	}
	if _, err := tbl.Accessed(0x999000, false); err != ErrNotMapped {
		t.Errorf("unmapped accessed err = %v", err)
	}
}

func TestDirtyBitsAndHarvest(t *testing.T) {
	tbl, _ := newTable(t)
	for i := uint64(0); i < 8; i++ {
		if err := tbl.Map(0x10000+i*4096, 0x20000+i*4096, addr.Page4K); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.MarkDirty(0x10123); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MarkDirty(0x13fff); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MarkDirty(0x999000); err != ErrNotMapped {
		t.Errorf("dirty unmapped err = %v", err)
	}
	var dirty []uint64
	n := tbl.HarvestDirty(func(va uint64, s addr.PageSize) {
		dirty = append(dirty, va)
		if s != addr.Page4K {
			t.Errorf("size = %v", s)
		}
	})
	if n != 2 || len(dirty) != 2 || dirty[0] != 0x10000 || dirty[1] != 0x13000 {
		t.Errorf("harvest = %v (n=%d)", dirty, n)
	}
	// Harvest clears: second pass finds nothing.
	if n := tbl.HarvestDirty(func(uint64, addr.PageSize) {}); n != 0 {
		t.Errorf("second harvest found %d", n)
	}
}

func TestDirtyOn2MLeaf(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Map(0x200000, 0x400000, addr.Page2M); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MarkDirty(0x2abcde); err != nil {
		t.Fatal(err)
	}
	got := 0
	tbl.HarvestDirty(func(va uint64, s addr.PageSize) {
		if va != 0x200000 || s != addr.Page2M {
			t.Errorf("harvested %#x %v", va, s)
		}
		got++
	})
	if got != 1 {
		t.Errorf("harvested %d", got)
	}
}
