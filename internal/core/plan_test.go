package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"panda/internal/array"
)

// The placement rules as five packages each derived them before
// PlaceChunks became their one home, kept verbatim as the reference
// TestPlaceChunksMatchesOldRules checks it against.

type chunkJob struct {
	ChunkIdx   int
	Region     array.Region
	FileOffset int64
}

func assignChunks(disk array.Schema, elemSize, numServers, s int) []chunkJob {
	var jobs []chunkJob
	off := int64(0)
	for idx := s; idx < disk.NumChunks(); idx += numServers {
		reg := disk.Chunk(idx)
		if reg.IsEmpty() {
			continue
		}
		jobs = append(jobs, chunkJob{ChunkIdx: idx, Region: reg, FileOffset: off})
		off += reg.NumElems() * int64(elemSize)
	}
	return jobs
}

func assignChunksAlive(disk array.Schema, elemSize, numServers, s int, dead map[int]bool) []chunkJob {
	if len(dead) == 0 {
		return assignChunks(disk, elemSize, numServers, s)
	}
	var alive []int
	for i := 0; i < numServers; i++ {
		if !dead[i] {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		return nil
	}
	var jobs []chunkJob
	off := int64(0)
	orphans := 0
	for idx := 0; idx < disk.NumChunks(); idx++ {
		owner := idx % numServers
		if dead[owner] {
			owner = alive[orphans%len(alive)]
			orphans++
		}
		if owner != s {
			continue
		}
		reg := disk.Chunk(idx)
		if reg.IsEmpty() {
			continue
		}
		jobs = append(jobs, chunkJob{ChunkIdx: idx, Region: reg, FileOffset: off})
		off += reg.NumElems() * int64(elemSize)
	}
	return jobs
}

func serverFileBytes(a ArraySpec, numServers, s int) int64 {
	var total int64
	for idx := s; idx < a.Disk.NumChunks(); idx += numServers {
		total += a.Disk.Chunk(idx).NumElems() * int64(a.ElemSize)
	}
	return total
}

// share is server s's chunks, in file order, with every server up.
func share(spec ArraySpec, numServers, s int) []Placement {
	return shareOf(PlaceChunks(spec, numServers, nil), s)
}

// randomDisk draws a disk schema of rank 1-3 whose mesh may leave
// chunks empty.
func randomDisk(rnd *rand.Rand) array.Schema {
	rank := 1 + rnd.Intn(3)
	shape := make([]int, rank)
	dist := make([]array.Dist, rank)
	var mesh []int
	for d := range shape {
		shape[d] = 1 + rnd.Intn(20)
		if rnd.Intn(2) == 0 {
			dist[d] = array.Block
			mesh = append(mesh, 1+rnd.Intn(5))
		}
	}
	return array.MustSchema(shape, dist, mesh)
}

// TestPlaceChunksMatchesOldRules: for random schemas, 1-8 servers and
// random dead sets, every server's share of PlaceChunks is exactly what
// assignChunks (full house) or assignChunksAlive (degraded) gave it,
// the layout lists every non-empty chunk once in chunk-index order, and
// a full house's file ends where serverFileBytes said it would.
func TestPlaceChunksMatchesOldRules(t *testing.T) {
	rnd := rand.New(rand.NewSource(35))
	for iter := 0; iter < 400; iter++ {
		spec := ArraySpec{ElemSize: 1 + rnd.Intn(8), Disk: randomDisk(rnd)}
		ns := 1 + rnd.Intn(8)
		var dead map[int]bool
		if iter%2 == 1 {
			dead = map[int]bool{}
			for i := 0; i < ns; i++ {
				if rnd.Intn(3) == 0 {
					dead[i] = true
				}
			}
		}
		layout := PlaceChunks(spec, ns, dead)
		prev := -1
		for _, p := range layout {
			if p.Chunk <= prev || p.Bytes != spec.Disk.ChunkBytes(p.Chunk, spec.ElemSize) || p.Bytes == 0 {
				t.Fatalf("iter %d: layout entry %+v after chunk %d", iter, p, prev)
			}
			prev = p.Chunk
		}
		for s := 0; s < ns; s++ {
			var got []chunkJob
			for _, p := range layout {
				if p.Server == s {
					got = append(got, chunkJob{ChunkIdx: p.Chunk, Region: spec.Disk.Chunk(p.Chunk), FileOffset: p.Offset})
				}
			}
			want := assignChunksAlive(spec.Disk, spec.ElemSize, ns, s, dead)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d (%v, %d servers, dead %v), server %d:\n got %+v\nwant %+v", iter, spec.Disk, ns, dead, s, got, want)
			}
			if len(dead) > 0 {
				continue
			}
			end := int64(0)
			if sh := share(spec, ns, s); len(sh) > 0 {
				end = sh[len(sh)-1].Offset + sh[len(sh)-1].Bytes
			}
			if end != serverFileBytes(spec, ns, s) {
				t.Fatalf("iter %d, server %d: file ends at %d, serverFileBytes %d", iter, s, end, serverFileBytes(spec, ns, s))
			}
		}
	}
}

func TestAssignChunksRoundRobin(t *testing.T) {
	// 8 disk chunks over 3 servers: server 0 gets 0,3,6; 1 gets 1,4,7;
	// 2 gets 2,5.
	disk := array.MustSchema([]int{64, 64}, []array.Dist{array.Block, array.Block}, []int{4, 2})
	want := map[int][]int{0: {0, 3, 6}, 1: {1, 4, 7}, 2: {2, 5}}
	for s, idxs := range want {
		chunks := share(ArraySpec{ElemSize: 4, Disk: disk}, 3, s)
		if len(chunks) != len(idxs) {
			t.Fatalf("server %d: %d chunks, want %d", s, len(chunks), len(idxs))
		}
		off := int64(0)
		for i, c := range chunks {
			if c.Chunk != idxs[i] {
				t.Fatalf("server %d chunk %d: chunk %d, want %d", s, i, c.Chunk, idxs[i])
			}
			if c.Offset != off {
				t.Fatalf("server %d chunk %d: offset %d, want %d", s, i, c.Offset, off)
			}
			off += disk.Chunk(c.Chunk).NumElems() * 4
		}
	}
}

func TestAssignChunksSkipsEmpty(t *testing.T) {
	// 5 elements over an 8-mesh: chunks 5..7 are empty.
	disk := array.MustSchema([]int{5}, []array.Dist{array.Block}, []int{8})
	for s := 0; s < 2; s++ {
		for _, c := range share(ArraySpec{ElemSize: 1, Disk: disk}, 2, s) {
			if disk.Chunk(c.Chunk).IsEmpty() {
				t.Fatalf("server %d got empty chunk %d", s, c.Chunk)
			}
		}
	}
}

func TestAssignmentIsAPartition(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for iter := 0; iter < 100; iter++ {
		disk := randomDisk(rnd)
		ns := 1 + rnd.Intn(5)
		elem := 1 + rnd.Intn(8)

		seen := make(map[int]bool)
		var total int64
		for s := 0; s < ns; s++ {
			for _, c := range share(ArraySpec{ElemSize: elem, Disk: disk}, ns, s) {
				if seen[c.Chunk] {
					t.Fatalf("chunk %d assigned twice", c.Chunk)
				}
				seen[c.Chunk] = true
				total += disk.Chunk(c.Chunk).NumElems() * int64(elem)
			}
		}
		if total != disk.TotalBytes(elem) {
			t.Fatalf("assigned %d bytes, array has %d", total, disk.TotalBytes(elem))
		}
	}
}

func TestPlanSubchunksSequentialOffsets(t *testing.T) {
	spec := ArraySpec{
		Name:     "a",
		ElemSize: 8,
		Mem:      array.MustSchema([]int{64, 64, 64}, []array.Dist{array.Block, array.Block, array.Block}, []int{2, 2, 2}),
		Disk:     array.MustSchema([]int{64, 64, 64}, []array.Dist{array.Block, array.Star, array.Star}, []int{4}),
	}
	for s := 0; s < 2; s++ {
		subs := planSubchunks(0, spec, share(spec, 2, s), 32<<10)
		// Offsets must be strictly sequential and sizes bounded.
		next := int64(0)
		for _, sj := range subs {
			if sj.FileOffset != next {
				t.Fatalf("server %d: sub at offset %d, want %d", s, sj.FileOffset, next)
			}
			if sj.Bytes > 32<<10 || sj.Bytes <= 0 {
				t.Fatalf("sub size %d out of bounds", sj.Bytes)
			}
			if len(sj.Pieces) == 0 {
				t.Fatalf("sub %v has no pieces", sj.Region)
			}
			next += sj.Bytes
		}
		if next != serverFileBytes(spec, 2, s) {
			t.Fatalf("subs cover %d bytes, file needs %d", next, serverFileBytes(spec, 2, s))
		}
	}
}

func TestPlanPiecesCoverSubchunk(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	for iter := 0; iter < 60; iter++ {
		shape := []int{2 + rnd.Intn(16), 2 + rnd.Intn(16)}
		nc := []int{2, 4, 8}[rnd.Intn(3)]
		mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{nc / 2, 2})
		disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{1 + rnd.Intn(4)})
		spec := ArraySpec{Name: "p", ElemSize: 4, Mem: mem, Disk: disk}
		ns := 1 + rnd.Intn(3)
		for s := 0; s < ns; s++ {
			for _, sj := range planSubchunks(0, spec, share(spec, ns, s), 256) {
				var covered int64
				for _, pc := range sj.Pieces {
					sect, ok := array.Intersect(pc.Region, sj.Region)
					if !ok || !sect.Equal(pc.Region) {
						t.Fatalf("piece %v escapes sub-chunk %v", pc.Region, sj.Region)
					}
					if !mem.Chunk(pc.Client).Contains(pc.Region) {
						t.Fatalf("piece %v not inside client %d chunk", pc.Region, pc.Client)
					}
					covered += pc.Region.NumElems()
				}
				if covered != sj.Region.NumElems() {
					t.Fatalf("pieces cover %d elems of %d", covered, sj.Region.NumElems())
				}
			}
		}
	}
}

func TestNaturalChunkingSinglePieceSubchunks(t *testing.T) {
	// With identical schemas and chunks under the sub-chunk limit,
	// each sub-chunk is exactly one client's chunk: one piece, whole
	// region.
	sch := array.MustSchema([]int{32, 32}, []array.Dist{array.Block, array.Block}, []int{2, 2})
	spec := ArraySpec{Name: "n", ElemSize: 8, Mem: sch, Disk: sch}
	for s := 0; s < 2; s++ {
		for _, sj := range planSubchunks(0, spec, share(spec, 2, s), 1<<20) {
			if len(sj.Pieces) != 1 {
				t.Fatalf("natural chunking sub-chunk has %d pieces", len(sj.Pieces))
			}
			if !sj.Pieces[0].Region.Equal(sj.Region) {
				t.Fatalf("piece %v != sub-chunk %v", sj.Pieces[0].Region, sj.Region)
			}
		}
	}
}

// TestPlanPiecesTileSubchunk is the proof the write mover's unzeroed
// sub-chunk buffer rests on (bufpool.GetRaw in depositPiece): in every
// plan the shapes above make — random 2-D and 3-D reorganisations,
// natural chunking, and failover placement with servers dead — a
// sub-chunk's pieces are pairwise disjoint and their bytes sum to the
// sub-chunk's, so once every piece is in (remaining == 0, the only way
// a sub-chunk reaches the sink) no byte of the buffer is left unwritten.
func TestPlanPiecesTileSubchunk(t *testing.T) {
	tile := func(t *testing.T, spec ArraySpec, ns int, dead map[int]bool, limit int64) {
		t.Helper()
		layout := PlaceChunks(spec, ns, dead)
		for s := 0; s < ns; s++ {
			for _, sj := range planSubchunks(0, spec, shareOf(slices.Clone(layout), s), limit) {
				var bytes int64
				for i, a := range sj.Pieces {
					bytes += a.Region.NumElems() * int64(spec.ElemSize)
					for _, b := range sj.Pieces[i+1:] {
						if sect, ok := array.Intersect(a.Region, b.Region); ok && !sect.IsEmpty() {
							t.Fatalf("server %d (dead %v): pieces %v and %v of sub-chunk %v overlap", s, dead, a.Region, b.Region, sj.Region)
						}
					}
				}
				if bytes != sj.Bytes {
					t.Fatalf("server %d (dead %v): pieces of sub-chunk %v hold %d bytes of %d", s, dead, sj.Region, bytes, sj.Bytes)
				}
			}
		}
	}
	rnd := rand.New(rand.NewSource(29))
	for iter := 0; iter < 60; iter++ {
		shape := []int{2 + rnd.Intn(16), 2 + rnd.Intn(16)}
		nc := []int{2, 4, 8}[rnd.Intn(3)]
		mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{nc / 2, 2})
		disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{1 + rnd.Intn(4)})
		spec := ArraySpec{Name: "p", ElemSize: 4, Mem: mem, Disk: disk}
		ns := 1 + rnd.Intn(3)
		tile(t, spec, ns, nil, 256)
		if ns > 1 {
			tile(t, spec, ns, map[int]bool{rnd.Intn(ns): true}, 256)
		}
	}
	cube := ArraySpec{
		Name:     "a",
		ElemSize: 8,
		Mem:      array.MustSchema([]int{64, 64, 64}, []array.Dist{array.Block, array.Block, array.Block}, []int{2, 2, 2}),
		Disk:     array.MustSchema([]int{64, 64, 64}, []array.Dist{array.Block, array.Star, array.Star}, []int{4}),
	}
	natural := array.MustSchema([]int{32, 32}, []array.Dist{array.Block, array.Block}, []int{2, 2})
	for _, spec := range append(packOnceSpecs(), cube, ArraySpec{Name: "n", ElemSize: 8, Mem: natural, Disk: natural}) {
		tile(t, spec, 2, nil, 32<<10)
		tile(t, spec, 3, map[int]bool{1: true}, 4<<10)
	}
}
