package array

import (
	"bytes"
	"math/rand"
	"testing"
)

// copy_fast_test.go exercises the coalescing kernel specifically: the
// property test drives geometries the uniform random test rarely hits
// (degenerate 1-wide dims, fully contiguous sections, deep ranks beyond
// the stack-stride limit), the directed table pins the fixed-width arm
// and the widths beside it, the fuzz target lets the engine hunt for
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
	// One geometry per arm of the kernel: four one-element runs, strided
	// in both buffers, of 16 bytes (the fixed-width move) and of 3 (copy).
	for _, elem := range []byte{5, 2} {
		f.Add([]byte{1, elem, 7, 0, 3, 0, 7, 0, 1, 1})
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		srcR, dstR, sect, elem, ok := buildRegions(raw)
		if !ok {
			return
		}
		checkAgainstNaive(t, srcR, dstR, sect, elem)
	})
}

// fixedWidth is the run width CopyRegion moves by fixed-size assignment;
// copyWidths sit around it and must take the copy arm.
const fixedWidth = 16

var copyWidths = []int{4, 8, 12, 20, 24, 32, 33, 64}

// runGeometry builds a rank-r byte-element copy whose coalesced runs are
// exactly width bytes: the section spans width elements of the last
// dimension, which is wider — by an odd amount, at an odd offset, so runs
// start unaligned — in whichever buffers are strided; inner is the count
// of the kernel's innermost loop.
func runGeometry(rank, width, inner int, srcStrided, dstStrided bool) (srcR, dstR, sect Region) {
	mk := func() Region { return Region{Lo: make([]int, rank), Hi: make([]int, rank)} }
	srcR, dstR, sect = mk(), mk(), mk()
	for d := 0; d < rank-1; d++ {
		ext := 2
		if d == rank-2 {
			ext = inner
		}
		sect.Lo[d], sect.Hi[d] = 2, 2+ext
		srcR.Lo[d], srcR.Hi[d] = 1, 3+ext
		dstR.Lo[d], dstR.Hi[d] = 2, 2+ext
	}
	last := rank - 1
	sect.Lo[last], sect.Hi[last] = 3, 3+width
	pad := func(r Region, strided bool) {
		r.Lo[last], r.Hi[last] = 3, 3+width
		if strided {
			r.Lo[last], r.Hi[last] = 0, 2*width+5
		}
	}
	pad(srcR, srcStrided)
	pad(dstR, dstStrided)
	return srcR, dstR, sect
}

// TestCopyRegionRunWidths drives the fixed-width arm, and the copy arm at
// the widths around it, through src-strided, dst-strided and
// both-strided geometries of rank 2 to 5 with unaligned runs, against
// the naive reference.
func TestCopyRegionRunWidths(t *testing.T) {
	for _, width := range append([]int{fixedWidth}, copyWidths...) {
		for rank := 2; rank <= 5; rank++ {
			for _, inner := range []int{1, 3} {
				for _, strided := range [][2]bool{{true, false}, {false, true}, {true, true}} {
					srcR, dstR, sect := runGeometry(rank, width, inner, strided[0], strided[1])
					checkAgainstNaive(t, srcR, dstR, sect, 1)
				}
			}
		}
	}
}

// TestCopyRegionRunsEndAtBufferEnd packs and scatters runs whose last
// one ends on the final byte of its buffer: a fixed-size move must stay
// as far inside the slice as the copy it replaced — a guard band behind
// dst stays untouched.
func TestCopyRegionRunsEndAtBufferEnd(t *testing.T) {
	for _, width := range []int{fixedWidth, 24} {
		wide := Box([]int{5, 2 * width})
		tail := Region{Lo: []int{0, width}, Hi: []int{5, 2 * width}} // last run ends at len(wide buffer)
		for _, c := range []struct {
			name       string
			srcR, dstR Region
		}{
			{"gather", wide, tail},
			{"scatter", tail, wide},
		} {
			src := make([]byte, c.srcR.NumElems())
			rand.New(rand.NewSource(int64(width))).Read(src)
			n := int(c.dstR.NumElems())
			backing := bytes.Repeat([]byte{0xA5}, n+64)
			dst := backing[:n:n]
			want := bytes.Repeat([]byte{0xA5}, n)
			CopyRegion(dst, c.dstR, src, c.srcR, tail, 1)
			naiveCopyRegion(want, c.dstR, src, c.srcR, tail, 1)
			if !bytes.Equal(dst, want) {
				t.Errorf("%s, %d-byte runs: differs from reference", c.name, width)
			}
			if !bytes.Equal(backing[n:], bytes.Repeat([]byte{0xA5}, 64)) {
				t.Errorf("%s, %d-byte runs: wrote past len(dst)", c.name, width)
			}
		}
	}
}

// TestCopyRegionNoAllocs pins the zero-allocation contract for every
// rank the stack-stride fast path covers, on both arms of the kernel:
// 8-byte elements strided singly (8-byte runs, copy), in pairs (16, the
// fixed-width move) and in threes (24, copy).
func TestCopyRegionNoAllocs(t *testing.T) {
	for _, arm := range []struct{ elem, run int }{{8, 1}, {8, 2}, {8, 3}} {
		for rank := 1; rank <= 4; rank++ {
			shape := make([]int, rank)
			hi := make([]int, rank)
			for d := range shape {
				shape[d] = 8
				hi[d] = 5 // strided: never the full extent
			}
			hi[rank-1] = arm.run
			srcR := Box(shape)
			dstR := Box(shape)
			sect := Region{Lo: make([]int, rank), Hi: hi}
			src := make([]byte, srcR.NumElems()*int64(arm.elem))
			dst := make([]byte, dstR.NumElems()*int64(arm.elem))
			allocs := testing.AllocsPerRun(100, func() {
				CopyRegion(dst, dstR, src, srcR, sect, arm.elem)
			})
			if allocs != 0 {
				t.Errorf("rank %d, %d-byte runs: CopyRegion allocated %.1f times per op, want 0",
					rank, arm.elem*arm.run, allocs)
			}
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

// benchRun packs 16 MiB per iteration out of a 2-D byte array in
// contiguous runs of runBytes at twice that stride — the geometry of
// bench/'s pack probe, so a `make bench-pack` line reads against
// array.pack_run16_GBps.
func benchRun(b *testing.B, runBytes int) {
	rows := (16 << 20) / runBytes
	sect := Region{Lo: []int{0, 0}, Hi: []int{rows, runBytes}}
	benchCopy(b, Box([]int{rows, 2 * runBytes}), sect, sect, 1)
}

// The Run benchmarks cover the fixed-width arm (Run16) and the copy arm
// at the widths beside it: the 16-byte arm stays only while its row here
// is at least 1.5x what copy made of it, and must not cost the others.
func BenchmarkCopyRegionRun16(b *testing.B) { benchRun(b, 16) }
func BenchmarkCopyRegionRun24(b *testing.B) { benchRun(b, 24) }
func BenchmarkCopyRegionRun32(b *testing.B) { benchRun(b, 32) }
