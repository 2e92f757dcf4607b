package escape

import (
	"math"
	"testing"

	"vdirect/internal/trace"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1)
	r := trace.NewRand(2)
	var members []uint64
	for i := 0; i < 16; i++ {
		pfn := r.Uint64n(1 << 36)
		f.Insert(pfn)
		members = append(members, pfn)
	}
	for _, pfn := range members {
		if !f.MayContain(pfn) {
			t.Fatalf("false negative for %#x — Bloom filters cannot do that", pfn)
		}
	}
	if f.Inserts() != 16 {
		t.Errorf("Inserts = %d", f.Inserts())
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	f := New(1)
	r := trace.NewRand(3)
	for i := 0; i < 10000; i++ {
		if f.MayContain(r.Uint64n(1 << 36)) {
			t.Fatal("empty filter claimed membership")
		}
	}
	if f.PopCount() != 0 {
		t.Error("empty filter has set bits")
	}
}

func TestFalsePositiveRateAt16BadPages(t *testing.T) {
	// The paper's claim: a 256-bit filter keeps overhead near zero with
	// 16 faulty pages. The analytic FP rate at n=16 is
	// (1-(1-1/64)^16)^4 ≈ 0.0024; measure within a loose band.
	f := New(42)
	r := trace.NewRand(43)
	members := map[uint64]bool{}
	for i := 0; i < 16; i++ {
		pfn := r.Uint64n(1 << 30)
		f.Insert(pfn)
		members[pfn] = true
	}
	const probes = 2000000
	fp := 0
	for i := 0; i < probes; i++ {
		pfn := r.Uint64n(1 << 30)
		if members[pfn] {
			continue
		}
		if f.MayContain(pfn) {
			fp++
		}
	}
	rate := float64(fp) / probes
	analytic := f.FalsePositiveEstimate()
	if rate > 0.02 {
		t.Errorf("FP rate = %.5f, far above paper's near-zero claim", rate)
	}
	if math.Abs(rate-analytic) > 0.01 {
		t.Errorf("measured %.5f vs analytic %.5f disagree", rate, analytic)
	}
}

func TestFalsePositiveEstimateMonotone(t *testing.T) {
	f := New(5)
	prev := f.FalsePositiveEstimate()
	if prev != 0 {
		t.Errorf("empty filter FP estimate = %g", prev)
	}
	r := trace.NewRand(6)
	for i := 0; i < 32; i++ {
		f.Insert(r.Uint64n(1 << 36))
		cur := f.FalsePositiveEstimate()
		if cur < prev {
			t.Fatalf("FP estimate decreased at n=%d", i+1)
		}
		prev = cur
	}
}

func TestClear(t *testing.T) {
	f := New(7)
	f.Insert(12345)
	f.Clear()
	if f.MayContain(12345) {
		t.Error("Clear left membership")
	}
	if f.Inserts() != 0 || f.PopCount() != 0 {
		t.Error("Clear left state")
	}
}

func TestBitsSaveRestore(t *testing.T) {
	f := New(8)
	f.Insert(1)
	f.Insert(99)
	bits := f.Bits()
	g := New(8) // same seed → same hash matrices
	g.LoadBits(bits)
	if !g.MayContain(1) || !g.MayContain(99) {
		t.Error("restored filter lost members")
	}
	// Different seed → different matrices → restored bits are garbage
	// for that hardware instance; just confirm no panic and determinism.
	h := New(9)
	h.LoadBits(bits)
	_ = h.MayContain(1)
}

func bitsEqual(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for h := range a {
		if len(a[h]) != len(b[h]) {
			return false
		}
		for w := range a[h] {
			if a[h][w] != b[h][w] {
				return false
			}
		}
	}
	return true
}

func TestDeterministicAcrossInstances(t *testing.T) {
	a, b := New(77), New(77)
	a.Insert(4242)
	b.Insert(4242)
	if !bitsEqual(a.Bits(), b.Bits()) {
		t.Error("same seed produced different filters")
	}
	c := New(78)
	c.Insert(4242)
	if bitsEqual(a.Bits(), c.Bits()) {
		t.Error("different seeds produced identical filters (suspicious)")
	}
}

func TestSizedFilters(t *testing.T) {
	// A bigger filter must have a lower (or equal) FP rate at the same
	// load; a tiny one saturates.
	load := 16
	rate := func(bits int) float64 {
		f := NewSized(bits, 4, 9)
		r := trace.NewRand(10)
		members := map[uint64]bool{}
		for i := 0; i < load; i++ {
			pfn := r.Uint64n(1 << 30)
			f.Insert(pfn)
			members[pfn] = true
		}
		fp := 0
		const probes = 100000
		for i := 0; i < probes; i++ {
			pfn := r.Uint64n(1 << 30)
			if !members[pfn] && f.MayContain(pfn) {
				fp++
			}
		}
		return float64(fp) / probes
	}
	small, std, big := rate(64), rate(256), rate(1024)
	if !(big <= std && std <= small) {
		t.Errorf("FP rates not monotone in size: 64b=%.4f 256b=%.4f 1024b=%.4f", small, std, big)
	}
	if std > 0.02 {
		t.Errorf("256-bit FP rate %.4f too high", std)
	}
}

func TestNewSizedRejectsBadGeometry(t *testing.T) {
	for _, c := range []struct{ bits, hashes int }{{0, 4}, {256, 0}, {255, 4}, {96, 4}, {256, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSized(%d,%d) did not panic", c.bits, c.hashes)
				}
			}()
			NewSized(c.bits, c.hashes, 1)
		}()
	}
}

func TestLoadBitsGeometryMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on geometry mismatch")
		}
	}()
	a := New(1)
	b := NewSized(512, 4, 1)
	b.LoadBits(a.Bits())
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

func TestPopCountBounded(t *testing.T) {
	f := New(11)
	r := trace.NewRand(12)
	for i := 0; i < 16; i++ {
		f.Insert(r.Uint64n(1 << 36))
	}
	// 16 inserts x 4 banks sets at most 64 bits.
	if pc := f.PopCount(); pc > 64 || pc < 4 {
		t.Errorf("PopCount = %d, want in [4, 64]", pc)
	}
}

// refH3 is the bit-serial H3 construction the lane tables fold: per
// hash, one row per input bit drawn in NewSized's order, XORed over the
// PFN's set bits below inputBits.
type refH3 struct {
	rows  [][inputBits]uint16
	banks [][]uint64
}

func newRefH3(totalBits, hashes int, seed uint64) *refH3 {
	per := uint64(totalBits / hashes)
	ref := &refH3{rows: make([][inputBits]uint16, hashes), banks: make([][]uint64, hashes)}
	r := trace.NewRand(seed ^ 0xE5CA9EF117E4)
	for h := range ref.rows {
		ref.banks[h] = make([]uint64, (per+63)/64)
		for b := 0; b < inputBits; b++ {
			ref.rows[h][b] = uint16(r.Uint64n(per))
		}
	}
	return ref
}

func (ref *refH3) hash(h int, pfn uint64) uint {
	var out uint16
	for b := 0; b < inputBits; b++ {
		if pfn&(1<<uint(b)) != 0 {
			out ^= ref.rows[h][b]
		}
	}
	return uint(out)
}

func (ref *refH3) insert(pfn uint64) {
	for h := range ref.banks {
		bit := ref.hash(h, pfn)
		ref.banks[h][bit/64] |= 1 << (bit % 64)
	}
}

func (ref *refH3) mayContain(pfn uint64) bool {
	for h := range ref.banks {
		bit := ref.hash(h, pfn)
		if ref.banks[h][bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// TestH3TablesMatchBitLoop holds the packed nibble tables to the
// bit-serial H3 definition: same bank bits after every insert, same
// answer on every probe, across seeds and sizes from a saturating
// 64-bit filter to a sparse 2^18-bit one. Half the PFNs carry bits at
// and above inputBits, which both forms must ignore.
func TestH3TablesMatchBitLoop(t *testing.T) {
	const probes = 1 << 17 // x 12 geometries: >1.5M PFNs
	for _, seed := range []uint64{1, 2, 9} {
		for _, bits := range []int{64, 256, 1024, 1 << 18} {
			f, ref := NewSized(bits, NumHashes, seed), newRefH3(bits, NumHashes, seed)
			r := trace.NewRand(seed*1000 + uint64(bits))
			hits := 0
			for i := 0; i < probes; i++ {
				pfn := r.Uint64()
				if i%2 == 0 {
					pfn &= 1<<inputBits - 1
				}
				if i%1024 == 0 {
					f.Insert(pfn)
					ref.insert(pfn)
					if !bitsEqual(f.Bits(), ref.banks) {
						t.Fatalf("seed %d bits %d: banks diverge after inserting %#x", seed, bits, pfn)
					}
				}
				got := f.MayContain(pfn)
				if got != ref.mayContain(pfn) {
					t.Fatalf("seed %d bits %d: MayContain(%#x) = %v, reference disagrees", seed, bits, pfn, got)
				}
				if got {
					hits++
				}
			}
			if hits == 0 {
				t.Errorf("seed %d bits %d: no probe hit; the comparison never saw a true answer", seed, bits)
			}
		}
	}
}
