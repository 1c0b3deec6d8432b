package array

import (
	"fmt"
	"strings"
)

// Dist is an HPF-style distribution directive for one array dimension.
// The paper's Panda 2.0 supports BLOCK- and *-based schemas (its Figure
// 2 uses {BLOCK, BLOCK, NONE}; NONE is the "*" directive).
type Dist int

const (
	// Star ("*", HPF NONE) leaves a dimension undistributed: every
	// chunk spans the full extent.
	Star Dist = iota
	// Block divides a dimension into contiguous blocks of size
	// ceil(n/m) across m mesh positions, HPF BLOCK.
	Block
)

// String renders the directive in HPF spelling.
func (d Dist) String() string {
	switch d {
	case Star:
		return "*"
	case Block:
		return "BLOCK"
	default:
		return fmt.Sprintf("Dist(%d)", int(d))
	}
}

// Schema describes how an array is decomposed into chunks: the array
// shape, a per-dimension distribution directive, and the logical mesh
// whose axes are consumed, in order, by the Block dimensions. It serves
// both as a memory schema (mesh = compute-node mesh, one chunk per
// node) and as a disk schema (chunks assigned round-robin to I/O
// nodes).
type Schema struct {
	// Shape is the global array extent per dimension.
	Shape []int
	// Dist gives the directive per dimension; len(Dist) == len(Shape).
	Dist []Dist
	// Mesh lists the mesh extent consumed by each Block dimension in
	// order; len(Mesh) == number of Block entries in Dist.
	Mesh []int
}

// NewSchema validates and returns a schema.
func NewSchema(shape []int, dist []Dist, mesh []int) (Schema, error) {
	s := Schema{
		Shape: append([]int(nil), shape...),
		Dist:  append([]Dist(nil), dist...),
		Mesh:  append([]int(nil), mesh...),
	}
	return s, s.Validate()
}

// MustSchema is NewSchema that panics on error, for tests and examples.
func MustSchema(shape []int, dist []Dist, mesh []int) Schema {
	s, err := NewSchema(shape, dist, mesh)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate checks internal consistency.
func (s Schema) Validate() error {
	if len(s.Shape) == 0 {
		return fmt.Errorf("array: schema has rank 0")
	}
	if len(s.Dist) != len(s.Shape) {
		return fmt.Errorf("array: %d distribution directives for rank %d", len(s.Dist), len(s.Shape))
	}
	for d, n := range s.Shape {
		if n <= 0 {
			return fmt.Errorf("array: non-positive extent %d in dimension %d", n, d)
		}
	}
	blocks := 0
	for _, dd := range s.Dist {
		switch dd {
		case Block:
			blocks++
		case Star:
		default:
			return fmt.Errorf("array: unknown distribution directive %d", int(dd))
		}
	}
	if blocks != len(s.Mesh) {
		return fmt.Errorf("array: %d BLOCK dimensions but mesh rank %d", blocks, len(s.Mesh))
	}
	for i, m := range s.Mesh {
		if m <= 0 {
			return fmt.Errorf("array: non-positive mesh extent %d in axis %d", m, i)
		}
	}
	return nil
}

// Rank reports the array rank.
func (s Schema) Rank() int { return len(s.Shape) }

// NumChunks reports the number of chunks (the mesh size; 1 for an
// all-Star schema).
func (s Schema) NumChunks() int {
	n := 1
	for _, m := range s.Mesh {
		n *= m
	}
	return n
}

// ChunkIndex converts mesh coordinates back into a chunk index.
func (s Schema) ChunkIndex(coord []int) int {
	if len(coord) != len(s.Mesh) {
		panic("array: mesh coordinate rank mismatch")
	}
	idx := 0
	for i, c := range coord {
		if c < 0 || c >= s.Mesh[i] {
			panic(fmt.Sprintf("array: mesh coordinate %v outside mesh %v", coord, s.Mesh))
		}
		idx = idx*s.Mesh[i] + c
	}
	return idx
}

// blockRange returns the [lo, hi) slice of a dimension of extent n cut
// into m HPF blocks, for block k: block size ceil(n/m), with trailing
// blocks possibly short or empty.
func blockRange(n, m, k int) (int, int) {
	bs := (n + m - 1) / m
	lo := k * bs
	hi := lo + bs
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Chunk returns the region of the chunk with the given index. Chunks
// are indexed row-major over the mesh; a chunk may be empty when the
// mesh extent exceeds the dimension's block count.
func (s Schema) Chunk(idx int) Region {
	lo := make([]int, s.Rank())
	hi := make([]int, s.Rank())
	s.chunkBounds(idx, func(d, l, h int) { lo[d], hi[d] = l, h })
	return Region{Lo: lo, Hi: hi}
}

// chunkBounds calls f with chunk idx's [lo, hi) bounds in every
// dimension d, innermost first.
func (s Schema) chunkBounds(idx int, f func(d, lo, hi int)) {
	if idx < 0 || idx >= s.NumChunks() {
		panic(fmt.Sprintf("array: chunk index %d out of range [0,%d)", idx, s.NumChunks()))
	}
	axis := len(s.Mesh)
	for d := s.Rank() - 1; d >= 0; d-- {
		lo, hi := 0, s.Shape[d]
		if s.Dist[d] == Block {
			axis--
			lo, hi = blockRange(s.Shape[d], s.Mesh[axis], idx%s.Mesh[axis])
			idx /= s.Mesh[axis]
		}
		f(d, lo, hi)
	}
}

// Chunks enumerates every chunk region in chunk-index order.
func (s Schema) Chunks() []Region {
	out := make([]Region, s.NumChunks())
	for i := range out {
		out[i] = s.Chunk(i)
	}
	return out
}

// ChunkBytes reports the byte size of chunk idx for the given element
// size. It builds no region, so it allocates nothing.
func (s Schema) ChunkBytes(idx, elemSize int) int64 {
	n := int64(elemSize)
	s.chunkBounds(idx, func(_, lo, hi int) { n *= int64(hi - lo) })
	return n
}

// TotalBytes reports the byte size of the whole array.
func (s Schema) TotalBytes(elemSize int) int64 {
	n := int64(1)
	for _, e := range s.Shape {
		n *= int64(e)
	}
	return n * int64(elemSize)
}

// String renders the schema in the paper's HPF-like notation, e.g.
// "512x512x512 (BLOCK,BLOCK,*) on 4x2x2".
func (s Schema) String() string {
	var b strings.Builder
	for i, n := range s.Shape {
		if i > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "%d", n)
	}
	b.WriteString(" (")
	for i, d := range s.Dist {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(d.String())
	}
	b.WriteString(")")
	if len(s.Mesh) > 0 {
		b.WriteString(" on ")
		for i, m := range s.Mesh {
			if i > 0 {
				b.WriteByte('x')
			}
			fmt.Fprintf(&b, "%d", m)
		}
	}
	return b.String()
}
