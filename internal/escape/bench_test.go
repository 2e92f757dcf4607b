package escape

import "testing"

func BenchmarkInsert(b *testing.B) {
	f := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Insert(uint64(i))
	}
}

func BenchmarkMayContainMiss(b *testing.B) {
	f := New(1)
	for i := uint64(0); i < 16; i++ {
		f.Insert(i * 7919)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContain(uint64(i) + 1<<40)
	}
}

// BenchmarkMayContainHit probes a saturated filter, so every probe
// tests all four banks, as escape probes do on a churned host.
func BenchmarkMayContainHit(b *testing.B) {
	f := New(1)
	for i := uint64(0); i < 1024; i++ {
		f.Insert(i * 7919)
	}
	if f.PopCount() != FilterBits {
		b.Fatalf("filter not saturated: %d of %d bits set", f.PopCount(), FilterBits)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.MayContain(uint64(i)) {
			b.Fatal("saturated filter missed")
		}
	}
}
