package array

import (
	"bytes"
	"math/rand"
	"testing"
)

// copy_fast_test.go exercises the coalescing kernel specifically: the
// property test drives geometries the uniform random test rarely hits
// (degenerate 1-wide dims, fully contiguous sections, deep ranks beyond
// the stack-stride limit), the fuzz target lets the engine hunt for
// disagreements with the naive reference, and the benchmarks back the
// `make bench-pack` target.

// buildRegions decodes a geometry from a byte stream: a rank, a global
// shape, and src/dst sub-boxes that overlap in sect. Returns ok=false
// when the bytes do not describe a usable geometry.
func buildRegions(raw []byte) (srcR, dstR, sect Region, elem int, ok bool) {
	if len(raw) < 2 {
		return
	}
	rank := 1 + int(raw[0])%6
	elem = []int{1, 2, 3, 4, 8, 16}[int(raw[1])%6]
	raw = raw[2:]
	if len(raw) < 4*rank {
		return
	}
	byteAt := func(i int) int { return int(raw[i]) }
	lo1 := make([]int, rank)
	hi1 := make([]int, rank)
	lo2 := make([]int, rank)
	hi2 := make([]int, rank)
	for d := 0; d < rank; d++ {
		// Shapes up to 8 per dim keep fuzz iterations fast; extent 1
		// dims (degenerate) and identical boxes (full contiguity) are
		// all reachable.
		shape := 1 + byteAt(4*d)%8
		lo1[d] = byteAt(4*d+1) % shape
		hi1[d] = lo1[d] + 1 + byteAt(4*d+2)%(shape-lo1[d])
		lo2[d] = byteAt(4*d+3) % shape
		hi2[d] = lo2[d] + 1 + byteAt(4*d+2)%(shape-lo2[d])
	}
	srcR = Region{Lo: lo1, Hi: hi1}
	dstR = Region{Lo: lo2, Hi: hi2}
	sect, ok = Intersect(srcR, dstR)
	return
}

func checkAgainstNaive(t *testing.T, srcR, dstR, sect Region, elem int) {
	t.Helper()
	rnd := rand.New(rand.NewSource(int64(elem) + sect.NumElems()))
	src := make([]byte, srcR.NumElems()*int64(elem))
	rnd.Read(src)
	fast := make([]byte, dstR.NumElems()*int64(elem))
	slow := make([]byte, len(fast))
	rnd.Read(fast)
	copy(slow, fast)

	CopyRegion(fast, dstR, src, srcR, sect, elem)
	naiveCopyRegion(slow, dstR, src, srcR, sect, elem)
	if !bytes.Equal(fast, slow) {
		t.Fatalf("CopyRegion differs from reference (src %v dst %v sect %v elem %d)",
			srcR, dstR, sect, elem)
	}
}

// TestCopyRegionCoalescedProperty hammers the coalescing kernel with
// random geometries biased toward the interesting edges: degenerate
// 1-wide dimensions, sections spanning the full extent of trailing (or
// all) dims in one or both buffers, and ranks past maxStackRank.
func TestCopyRegionCoalescedProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(2026))
	raw := make([]byte, 2+4*6)
	for iter := 0; iter < 3000; iter++ {
		rnd.Read(raw)
		switch iter % 4 {
		case 1:
			// Force degenerate dims: shape byte % 8 == 0 -> extent 1.
			for d := 0; d < 6; d++ {
				if rnd.Intn(2) == 0 {
					raw[2+4*d] = 0
				}
			}
		case 2:
			// Force full contiguity: src == dst == whole box.
			for d := 0; d < 6; d++ {
				raw[2+4*d+1] = 0   // lo1 = 0
				raw[2+4*d+3] = 0   // lo2 = 0
				raw[2+4*d+2] = 255 // hi = shape (255 % shape-0 maximal)
			}
		}
		srcR, dstR, sect, elem, ok := buildRegions(raw)
		if !ok {
			continue
		}
		checkAgainstNaive(t, srcR, dstR, sect, elem)
	}
}

// FuzzCopyRegion lets the fuzzing engine search for geometries where
// the coalescing kernel disagrees with the per-element reference.
func FuzzCopyRegion(f *testing.F) {
	f.Add([]byte{2, 3, 7, 1, 5, 2, 4, 0, 3, 6})
	f.Add([]byte{0, 0, 1, 0, 0, 0})
	f.Add([]byte{5, 4, 3, 0, 9, 1, 1, 0, 1, 0, 7, 2, 2, 1, 2, 0, 1, 1, 8, 0, 7, 3, 4, 2, 6, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		srcR, dstR, sect, elem, ok := buildRegions(raw)
		if !ok {
			return
		}
		checkAgainstNaive(t, srcR, dstR, sect, elem)
	})
}

// TestCopyRegionNoAllocs pins the zero-allocation contract for every
// rank the stack-stride fast path covers.
func TestCopyRegionNoAllocs(t *testing.T) {
	for rank := 1; rank <= 4; rank++ {
		shape := make([]int, rank)
		hi := make([]int, rank)
		for d := range shape {
			shape[d] = 8
			hi[d] = 5 // strided: never the full extent
		}
		srcR := Box(shape)
		dstR := Box(shape)
		sect := Region{Lo: make([]int, rank), Hi: hi}
		src := make([]byte, srcR.NumElems()*8)
		dst := make([]byte, dstR.NumElems()*8)
		allocs := testing.AllocsPerRun(100, func() {
			CopyRegion(dst, dstR, src, srcR, sect, 8)
		})
		if allocs != 0 {
			t.Errorf("rank %d: CopyRegion allocated %.1f times per op, want 0", rank, allocs)
		}
	}
}

func benchCopy(b *testing.B, srcR, dstR, sect Region, elem int) {
	b.Helper()
	src := make([]byte, srcR.NumElems()*int64(elem))
	dst := make([]byte, dstR.NumElems()*int64(elem))
	b.SetBytes(sect.NumElems() * int64(elem))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CopyRegion(dst, dstR, src, srcR, sect, elem)
	}
}

// BenchmarkCopyRegion2D: 2048 short strided rows (64 B runs) — the
// per-row overhead regime where the incremental odometer pays off.
func BenchmarkCopyRegion2D(b *testing.B) {
	benchCopy(b,
		Box([]int{2048, 64}),
		Box([]int{2048, 8}),
		Region{Lo: []int{0, 0}, Hi: []int{2048, 8}},
		8)
}

// BenchmarkCopyRegion3D: a 3D corner section, strided in the two inner
// dims of the source (64 B runs).
func BenchmarkCopyRegion3D(b *testing.B) {
	benchCopy(b,
		Box([]int{32, 64, 64}),
		Box([]int{32, 64, 8}),
		Region{Lo: []int{0, 0, 0}, Hi: []int{32, 64, 8}},
		8)
}

// BenchmarkCopyRegion3DCoalesced: trailing dims full in both buffers —
// the kernel folds a 32×64×64 section into 32 big runs (and, with the
// whole box, one).
func BenchmarkCopyRegion3DCoalesced(b *testing.B) {
	benchCopy(b,
		Box([]int{64, 64, 64}),
		Box([]int{32, 64, 64}),
		Region{Lo: []int{0, 0, 0}, Hi: []int{32, 64, 64}},
		8)
}

// BenchmarkCopyRegionContig: fully contiguous section — one memcpy plus
// the coalesce test itself.
func BenchmarkCopyRegionContig(b *testing.B) {
	r := Box([]int{256, 1024})
	benchCopy(b, r, r, r, 8)
}
