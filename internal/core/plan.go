package core

import (
	"fmt"
	"slices"

	"panda/internal/array"
	"panda/internal/bufpool"
	"panda/internal/storage"
)

// Planning: each server derives, independently and without any
// server-to-server traffic (paper §2), which disk chunks it owns and
// where each lands in its file (PlaceChunks), how chunks split into
// ≤SubchunkBytes sub-chunks, and which clients hold the pieces of each
// sub-chunk.

// subchunkJob is one unit of sequential disk I/O.
type subchunkJob struct {
	ArrayIdx   int
	Region     array.Region
	FileOffset int64 // within the array's file on this server
	Bytes      int64
	Pieces     []piece
}

// piece is the part of a sub-chunk held by one client.
type piece struct {
	Client int // client rank
	Region array.Region
}

// Placement is where one disk chunk lives on disk: the server whose
// file holds it and the byte range it fills there.
type Placement struct {
	Chunk  int   // index into the disk schema's chunk list
	Server int   // server index
	Offset int64 // byte offset of the chunk in the server's file
	Bytes  int64
}

// PlaceChunks is the on-disk layout of spec over numServers servers,
// and the only code that applies its two rules: every non-empty disk
// chunk, in chunk-index order, with its server and its offset in that
// server's file. Chunk i goes to server i mod numServers, the paper's
// implicit round-robin ("chunks are implicitly assigned in a
// round-robin fashion across all the servers"), unless that server is
// in dead: then it goes round-robin, in chunk-index order, across the
// survivors. Every survivor derives the same reassignment on its own,
// so replanning needs no server-to-server traffic. A server's file is
// its chunks concatenated in chunk-index order, each in traditional
// (row-major) order; empty chunks take no space. With every server
// dead nothing is placed.
func PlaceChunks(spec ArraySpec, numServers int, dead map[int]bool) []Placement {
	var alive []int
	if len(dead) > 0 {
		for i := 0; i < numServers; i++ {
			if !dead[i] {
				alive = append(alive, i)
			}
		}
		if len(alive) == 0 {
			return nil
		}
	}
	// Each server's file end so far. A server plans on a cache miss, so
	// the usual deployment keeps these on the stack.
	var small [16]int64
	ends := small[:]
	if numServers > len(small) {
		ends = make([]int64, numServers)
	}
	out := make([]Placement, 0, spec.Disk.NumChunks())
	orphans := 0
	for idx := 0; idx < spec.Disk.NumChunks(); idx++ {
		s := idx % numServers
		if dead[s] {
			s = alive[orphans%len(alive)]
			orphans++
		}
		n := spec.Disk.ChunkBytes(idx, spec.ElemSize)
		if n == 0 {
			continue
		}
		out = append(out, Placement{Chunk: idx, Server: s, Offset: ends[s], Bytes: n})
		ends[s] += n
	}
	return out
}

// shareOf filters a layout PlaceChunks returned down to server s's
// chunks, in file order, reusing its backing array.
func shareOf(layout []Placement, s int) []Placement {
	return slices.DeleteFunc(layout, func(p Placement) bool { return p.Server != s })
}

// chunksFromManifest rebuilds the chunk list a committed file on
// server actually holds from its manifest. It may differ from the full
// house's layout when the epoch was written degraded (the file then
// carries chunks adopted from dead servers). The list comes off the
// disk, so it is checked against the spec before anything is planned
// from it: every index names a chunk of the disk schema, every entry is
// as long as that chunk, and the entries lie in file order without
// overlap inside TotalBytes. A list that fails is ErrCorrupt: the read
// fails, typed, and the files stay for pandafsck.
func chunksFromManifest(spec ArraySpec, m *storage.Manifest, server int) ([]Placement, error) {
	chunks := make([]Placement, 0, len(m.Chunks))
	end := int64(0)
	for _, c := range m.Chunks {
		if c.ChunkIdx < 0 || c.ChunkIdx >= spec.Disk.NumChunks() {
			return nil, fmt.Errorf("manifest lists chunk %d of %d: %w", c.ChunkIdx, spec.Disk.NumChunks(), ErrCorrupt)
		}
		if want := spec.Disk.ChunkBytes(c.ChunkIdx, spec.ElemSize); c.Bytes != want {
			return nil, fmt.Errorf("manifest gives chunk %d %d bytes, the schema %d: %w", c.ChunkIdx, c.Bytes, want, ErrCorrupt)
		}
		if c.Offset < end || c.Offset+c.Bytes > m.TotalBytes {
			return nil, fmt.Errorf("manifest puts chunk %d at [%d, %d) of %d bytes, after one ending at %d: %w",
				c.ChunkIdx, c.Offset, c.Offset+c.Bytes, m.TotalBytes, end, ErrCorrupt)
		}
		end = c.Offset + c.Bytes
		chunks = append(chunks, Placement{Chunk: c.ChunkIdx, Server: server, Offset: c.Offset, Bytes: c.Bytes})
	}
	return chunks, nil
}

// sameChunkList reports whether a manifest lists exactly the chunks —
// same chunks, same order, same offsets and lengths, planned bytes in
// all — so that a plan derived from the chunks is the plan for the file.
func sameChunkList(m *storage.Manifest, chunks []Placement, planned int64) bool {
	if len(m.Chunks) != len(chunks) || m.TotalBytes != planned {
		return false
	}
	for i, c := range m.Chunks {
		p := chunks[i]
		if c.ChunkIdx != p.Chunk || c.Offset != p.Offset || c.Bytes != p.Bytes {
			return false
		}
	}
	return true
}

// specFingerprint hashes the parts of a spec that determine the layout
// of the server files: element size and the disk schema. A manifest
// records it so a reader with a different schema cannot misinterpret
// the chunk list.
func specFingerprint(a ArraySpec) uint32 { return fingerprint(a, false) }

// planFingerprint extends specFingerprint with the memory schema: a
// sub-chunk plan depends on where the clients hold the data (the piece
// lists), not just on the file layout, so the plan cache keys on both.
func planFingerprint(a ArraySpec) uint32 { return fingerprint(a, true) }

// fingerprint encodes into a pooled buffer: every operation takes a
// fingerprint per array, and the checksum's argument escapes.
func fingerprint(a ArraySpec, withMem bool) uint32 {
	w := wbuf{b: bufpool.GetRaw(256)[:0]}
	w.u32(uint32(a.ElemSize))
	w.schema(a.Disk)
	if withMem {
		w.schema(a.Mem)
	}
	sum := storage.CRC32C(w.b)
	bufpool.Put(w.b)
	return sum
}

// planSubchunks expands one array's chunks on one server into the
// ordered list of sub-chunk jobs, computing for each the clients that
// hold a part of it. The order — chunks in file order, sub-chunks in
// row-major order within each chunk — makes every file access strictly
// sequential.
func planSubchunks(arrayIdx int, a ArraySpec, chunks []Placement, subchunkBytes int64) []subchunkJob {
	var out []subchunkJob
	for _, c := range chunks {
		off := c.Offset
		for _, sub := range array.SplitContiguous(a.Disk.Chunk(c.Chunk), a.ElemSize, subchunkBytes) {
			sj := subchunkJob{
				ArrayIdx:   arrayIdx,
				Region:     sub,
				FileOffset: off,
				Bytes:      sub.NumElems() * int64(a.ElemSize),
			}
			for client := 0; client < a.Mem.NumChunks(); client++ {
				if sect, ok := array.Intersect(a.Mem.Chunk(client), sub); ok {
					sj.Pieces = append(sj.Pieces, piece{Client: client, Region: sect})
				}
			}
			out = append(out, sj)
			off += sj.Bytes
		}
	}
	return out
}
