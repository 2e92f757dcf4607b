// Package escape implements the escape filter (§V): a small hardware
// Bloom filter that lets individual pages inside a direct segment
// "escape" segment translation and fall back to conventional paging.
// The OS/VMM uses it to remap faulty physical pages (and, optionally,
// guard pages) without giving up the segment.
//
// The design follows the paper: a 256-bit parallel Bloom filter with
// four H3 hash functions (per Sanchez et al., "Implementing Signatures
// for Transactional Memory"). "Parallel" means partitioned: the 256
// bits are split into four 64-bit banks and each hash function indexes
// its own bank, so one probe reads all four banks concurrently.
//
// False positives are benign for correctness — a falsely-escaped page
// just takes the paging path, so the VMM must install PTEs for filter
// hits whether true or false (§V) — but they cost performance, which is
// exactly what Figure 13 quantifies.
package escape

import "vdirect/internal/trace"

// Geometry of the paper's filter.
const (
	FilterBits = 256
	NumHashes  = 4
	bankBits   = FilterBits / NumHashes // 64 bits per bank
	inputBits  = 40                     // page-frame numbers up to 2^40 (4K frames of a 2^52 space)
)

// Filter is a partitioned Bloom filter; the paper's instance is 256
// bits with 4 H3 hash functions. It is part of per-context state:
// Bits/LoadBits serialize it for save/restore with the segment
// registers (§V: "The filter is part of the context state").
type Filter struct {
	// banks[h] holds bank h's bits, packed in uint64 words.
	banks [][]uint64
	// lanes folds the H3 matrices into per-nibble XOR tables: entry
	// [n][v] is the XOR of the rows selected by value v in input nibble
	// n, with hash h's bank index in bits [16h, 16h+16).
	lanes    [inputBits / 4][16]uint64
	bankBits uint
	inserts  int
}

// New creates the paper's 256-bit 4-hash filter; its H3 matrices derive
// deterministically from seed, so hardware instances are reproducible.
func New(seed uint64) *Filter { return NewSized(FilterBits, NumHashes, seed) }

// NewSized creates a filter of totalBits partitioned over hashes banks
// (totalBits/hashes must be a power of two), for sizing studies. At most
// four hashes fit the packed lane tables.
func NewSized(totalBits, hashes int, seed uint64) *Filter {
	if hashes <= 0 || hashes > NumHashes || totalBits <= 0 || totalBits%hashes != 0 {
		panic("escape: bad filter geometry")
	}
	per := uint(totalBits / hashes)
	if per&(per-1) != 0 || per > 1<<16 {
		panic("escape: bank size must be a power of two <= 65536")
	}
	f := &Filter{banks: make([][]uint64, hashes), bankBits: per}
	words := (per + 63) / 64
	r := trace.NewRand(seed ^ 0xE5CA9EF117E4)
	for h := 0; h < hashes; h++ {
		f.banks[h] = make([]uint64, words)
		// H3 is linear over GF(2): the hash of a nibble value is the XOR
		// of the rows its set bits select, and the hash of a PFN is the
		// XOR of its nibbles' hashes.
		for b := 0; b < inputBits; b++ {
			row := r.Uint64n(uint64(per)) << (16 * uint(h))
			n, bit := b/4, uint(b%4)
			for v := range f.lanes[n] {
				if v&(1<<bit) != 0 {
					f.lanes[n][v] ^= row
				}
			}
		}
	}
	return f
}

// hashes computes all H3 hashes of the page frame number at once, hash
// h in lane h; input bits at and above inputBits are ignored.
func (f *Filter) hashes(pfn uint64) uint64 {
	var out uint64
	for n := range f.lanes {
		out ^= f.lanes[n][pfn>>(4*uint(n))&0xF]
	}
	return out
}

// Insert marks a page frame number as escaped.
func (f *Filter) Insert(pfn uint64) {
	x := f.hashes(pfn)
	for h := range f.banks {
		bit := uint(x >> (16 * uint(h)) & 0xFFFF)
		f.banks[h][bit/64] |= 1 << (bit % 64)
	}
	f.inserts++
}

// MayContain is the hardware probe: true means the page must take the
// paging path (true member or false positive).
func (f *Filter) MayContain(pfn uint64) bool {
	x := f.hashes(pfn)
	for h := range f.banks {
		bit := uint(x >> (16 * uint(h)) & 0xFFFF)
		if f.banks[h][bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Clear empties the filter.
func (f *Filter) Clear() {
	for h := range f.banks {
		for w := range f.banks[h] {
			f.banks[h][w] = 0
		}
	}
	f.inserts = 0
}

// Inserts returns how many pages have been inserted.
func (f *Filter) Inserts() int { return f.inserts }

// Bits serializes the filter contents (context save).
func (f *Filter) Bits() [][]uint64 {
	out := make([][]uint64, len(f.banks))
	for h, bank := range f.banks {
		out[h] = append([]uint64(nil), bank...)
	}
	return out
}

// LoadBits restores filter contents (context restore) into a filter of
// identical geometry. The insert count is not architectural and resets
// to zero.
func (f *Filter) LoadBits(b [][]uint64) {
	if len(b) != len(f.banks) {
		panic("escape: LoadBits geometry mismatch")
	}
	for h := range b {
		if len(b[h]) != len(f.banks[h]) {
			panic("escape: LoadBits geometry mismatch")
		}
		copy(f.banks[h], b[h])
	}
	f.inserts = 0
}

// PopCount returns the number of set bits, a coarse fullness metric.
func (f *Filter) PopCount() int {
	n := 0
	for _, bank := range f.banks {
		for _, w := range bank {
			for ; w != 0; w &= w - 1 {
				n++
			}
		}
	}
	return n
}

// FalsePositiveEstimate returns the analytic false-positive probability
// for a partitioned Bloom filter with f.inserts insertions: each bank
// has P(bit set) = 1-(1-1/bankBits)^n, and a false positive needs every
// bank to hit.
func (f *Filter) FalsePositiveEstimate() float64 {
	bankP := 1.0
	for i := 0; i < f.inserts; i++ {
		bankP *= 1 - 1.0/float64(f.bankBits)
	}
	perBank := 1 - bankP
	p := 1.0
	for range f.banks {
		p *= perBank
	}
	return p
}
