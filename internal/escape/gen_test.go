package escape

import "testing"

// TestGenTracksMutations pins the mutation counter: every operation
// that can change a future MayContain answer bumps Gen, and read-only
// operations leave it alone.
func TestGenTracksMutations(t *testing.T) {
	f := New(7)
	g0 := f.Gen()
	f.MayContain(5)
	_ = f.Bits()
	_ = f.PopCount()
	if f.Gen() != g0 {
		t.Fatal("read-only operations bumped Gen")
	}
	f.Insert(5)
	g1 := f.Gen()
	if g1 <= g0 {
		t.Fatalf("Insert did not bump Gen: %d -> %d", g0, g1)
	}
	f.Clear()
	g2 := f.Gen()
	if g2 <= g1 {
		t.Fatalf("Clear did not bump Gen: %d -> %d", g1, g2)
	}
	f.LoadBits(New(7).Bits())
	if f.Gen() <= g2 {
		t.Fatalf("LoadBits did not bump Gen: %d -> %d", g2, f.Gen())
	}
}

// TestLoadBitsRejectsBankMismatch: the outer geometry check is not
// enough — a bank of the wrong width must also panic rather than
// silently truncate the copy.
func TestLoadBitsRejectsBankMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LoadBits accepted a short bank")
		}
	}()
	f := New(7)
	b := f.Bits()
	b[0] = b[0][:len(b[0])-1]
	f.LoadBits(b)
}
