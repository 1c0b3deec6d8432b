package array

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegionBasics(t *testing.T) {
	r := NewRegion([]int{1, 2}, []int{4, 6})
	if r.Rank() != 2 {
		t.Fatalf("rank = %d", r.Rank())
	}
	if r.Extent(0) != 3 || r.Extent(1) != 4 {
		t.Fatalf("extents = %v", r.Extents())
	}
	if r.NumElems() != 12 {
		t.Fatalf("elems = %d", r.NumElems())
	}
	if r.IsEmpty() {
		t.Fatal("non-empty region reported empty")
	}
	if got := r.String(); got != "[1:4, 2:6)" {
		t.Fatalf("String = %q", got)
	}
	empty := NewRegion([]int{3, 3}, []int{3, 5})
	if !empty.IsEmpty() {
		t.Fatal("empty region not reported empty")
	}
}

func TestRegionContains(t *testing.T) {
	outer := Box([]int{10, 10})
	if !outer.Contains(NewRegion([]int{2, 3}, []int{5, 10})) {
		t.Fatal("contained region rejected")
	}
	if outer.Contains(NewRegion([]int{2, 3}, []int{5, 11})) {
		t.Fatal("overflowing region accepted")
	}
	if !outer.Contains(NewRegion([]int{4, 4}, []int{4, 4})) {
		t.Fatal("empty region should be contained")
	}
}

func TestIntersect(t *testing.T) {
	a := NewRegion([]int{0, 0}, []int{5, 5})
	b := NewRegion([]int{3, 2}, []int{8, 4})
	got, ok := Intersect(a, b)
	if !ok || !got.Equal(NewRegion([]int{3, 2}, []int{5, 4})) {
		t.Fatalf("Intersect = %v, %v", got, ok)
	}
	_, ok = Intersect(a, NewRegion([]int{5, 0}, []int{6, 5}))
	if ok {
		t.Fatal("disjoint regions intersected")
	}
}

func TestLinearIndex(t *testing.T) {
	r := NewRegion([]int{1, 1, 1}, []int{3, 4, 5})
	if got := r.LinearIndex([]int{1, 1, 1}); got != 0 {
		t.Fatalf("origin index = %d", got)
	}
	// Point (2,3,4): ((2-1)*3 + (3-1))*4 + (4-1) = (3+2)*4+3 = 23.
	if got := r.LinearIndex([]int{2, 3, 4}); got != 23 {
		t.Fatalf("index = %d, want 23", got)
	}
}

func TestSchemaValidation(t *testing.T) {
	cases := []struct {
		shape []int
		dist  []Dist
		mesh  []int
		ok    bool
	}{
		{[]int{8, 8}, []Dist{Block, Block}, []int{2, 2}, true},
		{[]int{8, 8}, []Dist{Block, Star}, []int{4}, true},
		{[]int{8}, []Dist{Star}, nil, true},
		{[]int{8, 8}, []Dist{Block}, []int{2}, false},        // dist rank mismatch
		{[]int{8, 8}, []Dist{Block, Block}, []int{2}, false}, // mesh rank mismatch
		{[]int{0, 8}, []Dist{Star, Star}, nil, false},        // zero extent
		{[]int{8}, []Dist{Block}, []int{0}, false},           // zero mesh
		{nil, nil, nil, false},                               // rank 0
	}
	for i, c := range cases {
		_, err := NewSchema(c.shape, c.dist, c.mesh)
		if (err == nil) != c.ok {
			t.Errorf("case %d: err = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestChunksPaperExample(t *testing.T) {
	// The paper's example: 512^3 array, BLOCK,BLOCK,BLOCK on a 4x4x2
	// mesh = 32 chunks of 128x128x256.
	s := MustSchema([]int{512, 512, 512}, []Dist{Block, Block, Block}, []int{4, 4, 2})
	if s.NumChunks() != 32 {
		t.Fatalf("NumChunks = %d", s.NumChunks())
	}
	c0 := s.Chunk(0)
	if !c0.Equal(NewRegion([]int{0, 0, 0}, []int{128, 128, 256})) {
		t.Fatalf("chunk 0 = %v", c0)
	}
	cLast := s.Chunk(31)
	if !cLast.Equal(NewRegion([]int{384, 384, 256}, []int{512, 512, 512})) {
		t.Fatalf("chunk 31 = %v", cLast)
	}
	if s.ChunkBytes(0, 8) != 128*128*256*8 {
		t.Fatalf("chunk bytes = %d", s.ChunkBytes(0, 8))
	}
}

func TestChunksTraditionalOrder(t *testing.T) {
	// BLOCK,*,* across 4 I/O nodes slices the outermost dimension, so
	// concatenating chunks in order gives traditional row-major order.
	s := MustSchema([]int{512, 512, 512}, []Dist{Block, Star, Star}, []int{4})
	if s.NumChunks() != 4 {
		t.Fatalf("NumChunks = %d", s.NumChunks())
	}
	for i := 0; i < 4; i++ {
		want := NewRegion([]int{i * 128, 0, 0}, []int{(i + 1) * 128, 512, 512})
		if !s.Chunk(i).Equal(want) {
			t.Fatalf("chunk %d = %v, want %v", i, s.Chunk(i), want)
		}
	}
}

func TestChunkUnevenBlocks(t *testing.T) {
	// 10 elements over 4 mesh slots: blocks of ceil(10/4)=3 → 3,3,3,1.
	s := MustSchema([]int{10}, []Dist{Block}, []int{4})
	wantExt := []int{3, 3, 3, 1}
	for i, w := range wantExt {
		if got := s.Chunk(i).Extent(0); got != w {
			t.Fatalf("chunk %d extent = %d, want %d", i, got, w)
		}
	}
	// 5 elements over 4 slots: 2,2,1,0 (last chunk empty).
	s2 := MustSchema([]int{5}, []Dist{Block}, []int{4})
	if !s2.Chunk(3).IsEmpty() {
		t.Fatal("expected empty trailing chunk")
	}
}

// meshCoord converts a chunk index into mesh coordinates, row-major
// over s.Mesh: the mapping ChunkIndex inverts.
func meshCoord(s Schema, chunk int) []int {
	c := make([]int, len(s.Mesh))
	for i := len(s.Mesh) - 1; i >= 0; i-- {
		c[i] = chunk % s.Mesh[i]
		chunk /= s.Mesh[i]
	}
	return c
}

func TestChunkIndexRoundTrip(t *testing.T) {
	s := MustSchema([]int{16, 16, 16}, []Dist{Block, Block, Block}, []int{2, 3, 4})
	for i := 0; i < s.NumChunks(); i++ {
		if got := s.ChunkIndex(meshCoord(s, i)); got != i {
			t.Fatalf("round trip %d -> %d", i, got)
		}
	}
}

// randomSchema builds an arbitrary valid schema for property tests.
func randomSchema(rnd *rand.Rand) Schema {
	rank := 1 + rnd.Intn(4)
	shape := make([]int, rank)
	dist := make([]Dist, rank)
	var mesh []int
	for d := 0; d < rank; d++ {
		shape[d] = 1 + rnd.Intn(12)
		if rnd.Intn(2) == 0 {
			dist[d] = Block
			mesh = append(mesh, 1+rnd.Intn(4))
		} else {
			dist[d] = Star
		}
	}
	return MustSchema(shape, dist, mesh)
}

func TestChunksPartitionArrayProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		s := randomSchema(rnd)
		total := Box(s.Shape).NumElems()
		var sum int64
		covered := make(map[string]bool)
		for _, c := range s.Chunks() {
			sum += c.NumElems()
			if c.IsEmpty() {
				continue
			}
			// Sample points and ensure no chunk overlap.
			for probe := 0; probe < 8; probe++ {
				pt := make([]int, s.Rank())
				key := ""
				for d := range pt {
					pt[d] = c.Lo[d] + rnd.Intn(c.Extent(d))
					key += string(rune(pt[d])) + ","
				}
				_ = key
			}
		}
		if sum != total {
			t.Fatalf("schema %v: chunk elems sum %d != array %d", s, sum, total)
		}
		_ = covered
	}
}

func TestEveryPointInExactlyOneChunk(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		s := randomSchema(rnd)
		chunks := s.Chunks()
		// Walk every point of the (small) array and count owners.
		var walk func(d int, pt []int)
		walk = func(d int, pt []int) {
			if d == s.Rank() {
				owners := 0
				for _, c := range chunks {
					in := true
					for k := range pt {
						if pt[k] < c.Lo[k] || pt[k] >= c.Hi[k] {
							in = false
							break
						}
					}
					if in {
						owners++
					}
				}
				if owners != 1 {
					t.Fatalf("schema %v: point %v in %d chunks", s, pt, owners)
				}
				return
			}
			for i := 0; i < s.Shape[d]; i++ {
				pt[d] = i
				walk(d+1, pt)
			}
		}
		if Box(s.Shape).NumElems() <= 4096 {
			walk(0, make([]int, s.Rank()))
		}
	}
}

// fillPattern writes a recognizable little-endian uint32 pattern keyed
// by global linear index into a buffer holding region r of a global
// array shaped shape.
func fillPattern(buf []byte, r Region, shape []int) {
	global := Box(shape)
	rank := r.Rank()
	pt := append([]int(nil), r.Lo...)
	if r.IsEmpty() {
		return
	}
	for {
		gi := global.LinearIndex(pt)
		li := r.LinearIndex(pt)
		binary.LittleEndian.PutUint32(buf[li*4:], uint32(gi*2654435761))
		d := rank - 1
		for d >= 0 {
			pt[d]++
			if pt[d] < r.Hi[d] {
				break
			}
			pt[d] = r.Lo[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}

func TestCopyRegionExtractDeposit(t *testing.T) {
	shape := []int{6, 7, 5}
	whole := Box(shape)
	src := make([]byte, whole.NumElems()*4)
	fillPattern(src, whole, shape)

	sect := NewRegion([]int{1, 2, 0}, []int{5, 6, 4})
	piece := Extract(src, whole, sect, 4)
	if int64(len(piece)) != sect.NumElems()*4 {
		t.Fatalf("piece size %d", len(piece))
	}
	// Verify the piece holds the right pattern.
	want := make([]byte, len(piece))
	fillPattern(want, sect, shape)
	if !bytes.Equal(piece, want) {
		t.Fatal("Extract produced wrong bytes")
	}

	// Deposit into a zeroed buffer and extract again.
	dst := make([]byte, len(src))
	CopyRegion(dst, whole, piece, sect, sect, 4)
	again := Extract(dst, whole, sect, 4)
	if !bytes.Equal(again, want) {
		t.Fatal("Deposit/Extract round trip failed")
	}
}

func TestCopyRegionBetweenDifferentFrames(t *testing.T) {
	shape := []int{8, 8}
	whole := Box(shape)
	full := make([]byte, whole.NumElems()*4)
	fillPattern(full, whole, shape)

	left := NewRegion([]int{0, 0}, []int{8, 5})
	right := NewRegion([]int{0, 3}, []int{8, 8})
	leftBuf := Extract(full, whole, left, 4)
	rightBuf := make([]byte, right.NumElems()*4)
	fillPattern(rightBuf, right, shape)

	// Copy the overlap column band from the left frame into a
	// zeroed right frame and compare against the reference.
	overlap, ok := Intersect(left, right)
	if !ok {
		t.Fatal("expected overlap")
	}
	got := make([]byte, right.NumElems()*4)
	CopyRegion(got, right, leftBuf, left, overlap, 4)
	wantPiece := Extract(rightBuf, right, overlap, 4)
	gotPiece := Extract(got, right, overlap, 4)
	if !bytes.Equal(wantPiece, gotPiece) {
		t.Fatal("cross-frame copy produced wrong bytes")
	}
}

func TestCopyRegionPanicsOnEscape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for section outside src")
		}
	}()
	CopyRegion(make([]byte, 16), Box([]int{4}), make([]byte, 8), Box([]int{2}), Box([]int{3}), 4)
}

func TestRedistributionIsAPermutation(t *testing.T) {
	// Distribute an array by one schema, redistribute every chunk
	// pairwise into a second schema via intersections, reassemble,
	// and require bit equality. This is exactly what Panda does
	// between memory and disk schemas.
	rnd := rand.New(rand.NewSource(99))
	for iter := 0; iter < 40; iter++ {
		memS := randomSchema(rnd)
		// Build a disk schema over the same shape.
		diskS := randomSchema(rnd)
		diskS.Shape = memS.Shape
		// Keep dist/mesh consistent with the new shape's rank.
		if len(diskS.Dist) != len(memS.Shape) {
			rank := len(memS.Shape)
			dist := make([]Dist, rank)
			var mesh []int
			for d := 0; d < rank; d++ {
				if rnd.Intn(2) == 0 {
					dist[d] = Block
					mesh = append(mesh, 1+rnd.Intn(3))
				}
			}
			diskS = MustSchema(memS.Shape, dist, mesh)
		} else if err := diskS.Validate(); err != nil {
			continue
		}

		shape := memS.Shape
		whole := Box(shape)
		ref := make([]byte, whole.NumElems()*4)
		fillPattern(ref, whole, shape)

		// Scatter to memory chunks.
		memBufs := make([][]byte, memS.NumChunks())
		for i := range memBufs {
			memBufs[i] = Extract(ref, whole, memS.Chunk(i), 4)
		}
		// Redistribute to disk chunks.
		diskBufs := make([][]byte, diskS.NumChunks())
		for j := range diskBufs {
			dr := diskS.Chunk(j)
			diskBufs[j] = make([]byte, dr.NumElems()*4)
			for i := range memBufs {
				mr := memS.Chunk(i)
				if sect, ok := Intersect(mr, dr); ok {
					CopyRegion(diskBufs[j], dr, memBufs[i], mr, sect, 4)
				}
			}
		}
		// Reassemble and compare.
		got := make([]byte, len(ref))
		for j := range diskBufs {
			CopyRegion(got, whole, diskBufs[j], diskS.Chunk(j), diskS.Chunk(j), 4)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("redistribution lost data: mem %v disk %v", memS, diskS)
		}
	}
}

func TestSplitContiguousBoundsAndOrder(t *testing.T) {
	r := NewRegion([]int{0, 0, 0}, []int{7, 9, 11})
	const elem = 8
	for _, maxBytes := range []int64{8, 64, 1000, 5000, 100000} {
		pieces := SplitContiguous(r, elem, maxBytes)
		var total int64
		prev := int64(0)
		for _, p := range pieces {
			sz := p.NumElems() * elem
			if sz > maxBytes {
				t.Fatalf("max %d: piece %v has %d bytes", maxBytes, p, sz)
			}
			if sz == 0 {
				t.Fatalf("empty piece %v", p)
			}
			if !r.Contains(p) {
				t.Fatalf("piece %v escapes region %v", p, r)
			}
			// Pieces must be consecutive in r's row-major order.
			start := r.LinearIndex(p.Lo) * elem
			if start != prev {
				t.Fatalf("max %d: piece %v starts at %d, want %d", maxBytes, p, start, prev)
			}
			prev = start + sz
			total += sz
		}
		if total != r.NumElems()*elem {
			t.Fatalf("pieces cover %d bytes, want %d", total, r.NumElems()*elem)
		}
	}
}

func TestSplitContiguousDataEquivalence(t *testing.T) {
	shape := []int{5, 6, 7}
	r := NewRegion([]int{1, 0, 2}, []int{5, 5, 7})
	whole := Box(shape)
	buf := make([]byte, whole.NumElems()*4)
	fillPattern(buf, whole, shape)
	chunk := Extract(buf, whole, r, 4)

	var reassembled []byte
	for _, p := range SplitContiguous(r, 4, 97) { // awkward non-power-of-2 bound
		reassembled = append(reassembled, Extract(chunk, r, p, 4)...)
	}
	if !bytes.Equal(reassembled, chunk) {
		t.Fatal("concatenated pieces differ from the chunk stream")
	}
}

func TestSplitContiguousSmallRegionSinglePiece(t *testing.T) {
	r := Box([]int{4, 4})
	pieces := SplitContiguous(r, 8, 1<<20)
	if len(pieces) != 1 || !pieces[0].Equal(r) {
		t.Fatalf("pieces = %v", pieces)
	}
}

func TestSplitContiguousProperty(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		rank := 1 + rnd.Intn(4)
		lo := make([]int, rank)
		hi := make([]int, rank)
		for d := range lo {
			lo[d] = rnd.Intn(5)
			hi[d] = lo[d] + 1 + rnd.Intn(8)
		}
		r := NewRegion(lo, hi)
		elem := 1 + rnd.Intn(16)
		maxBytes := int64(elem) + int64(rnd.Intn(4096))
		pieces := SplitContiguous(r, elem, maxBytes)
		var prev int64
		var total int64
		for _, p := range pieces {
			sz := p.NumElems() * int64(elem)
			if sz <= 0 || sz > maxBytes || !r.Contains(p) {
				return false
			}
			if r.LinearIndex(p.Lo)*int64(elem) != prev {
				return false
			}
			prev += sz
			total += sz
		}
		return total == r.NumElems()*int64(elem)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaString(t *testing.T) {
	s := MustSchema([]int{512, 512, 512}, []Dist{Block, Star, Star}, []int{8})
	if got := s.String(); got != "512x512x512 (BLOCK,*,*) on 8" {
		t.Fatalf("String = %q", got)
	}
}

// TestChunkBytesMatchesChunk: ChunkBytes, which builds no region, sizes
// every chunk of random schemas (empty ones included) as Chunk does,
// and allocates nothing.
func TestChunkBytesMatchesChunk(t *testing.T) {
	rnd := rand.New(rand.NewSource(35))
	for iter := 0; iter < 200; iter++ {
		rank := 1 + rnd.Intn(4)
		shape := make([]int, rank)
		dist := make([]Dist, rank)
		var mesh []int
		for d := range shape {
			shape[d] = 1 + rnd.Intn(12)
			if rnd.Intn(2) == 0 {
				dist[d] = Block
				mesh = append(mesh, 1+rnd.Intn(6))
			}
		}
		s := MustSchema(shape, dist, mesh)
		elem := 1 + rnd.Intn(8)
		for idx := 0; idx < s.NumChunks(); idx++ {
			if got, want := s.ChunkBytes(idx, elem), s.Chunk(idx).NumElems()*int64(elem); got != want {
				t.Fatalf("%v chunk %d: ChunkBytes %d, Chunk %d", s, idx, got, want)
			}
		}
	}
	s := MustSchema([]int{64, 64, 64}, []Dist{Block, Star, Block}, []int{4, 2})
	if n := testing.AllocsPerRun(100, func() { s.ChunkBytes(5, 4) }); n != 0 {
		t.Fatalf("ChunkBytes allocates %.0f times", n)
	}
}
