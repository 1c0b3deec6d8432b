package core

import (
	"fmt"

	"panda/internal/array"
	"panda/internal/bufpool"
	"panda/internal/storage"
)

// Planning: each server derives, independently and without any
// server-to-server traffic (paper §2), which disk chunks it owns, where
// each lands in its file, how chunks split into ≤SubchunkBytes
// sub-chunks, and which clients hold the pieces of each sub-chunk.

// chunkJob is one disk chunk assigned to a server.
type chunkJob struct {
	ChunkIdx   int          // index into the disk schema's chunk list
	Region     array.Region // the chunk's box in the global array
	FileOffset int64        // byte offset of the chunk in the server's file
}

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

// assignChunks lists the disk chunks owned by server index s under the
// paper's implicit round-robin assignment ("chunks are implicitly
// assigned in a round-robin fashion across all the servers"), together
// with each chunk's offset in the server's file: a server's file is the
// concatenation of its assigned chunks in assignment order, each stored
// in traditional (row-major) order. Empty chunks are skipped and take
// no file space.
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

// assignChunksAlive generalizes assignChunks to a degraded deployment:
// chunks whose round-robin owner is dead are reassigned round-robin
// across the surviving servers, in chunk-index order. Every survivor
// computes the same assignment independently — the replanning needs no
// server-to-server traffic, preserving the paper's property. With no
// dead servers the result is identical to assignChunks.
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

// chunkJobsFromManifest rebuilds the chunk list a committed file
// actually contains from its manifest — which may differ from the
// schema-derived assignment when the epoch was written degraded (this
// file then carries chunks adopted from dead servers). The list comes
// off the disk, so it is checked against the spec before anything is
// planned from it: every index names a chunk of the disk schema, every
// entry is as long as that chunk, and the entries lie in file order
// without overlap inside TotalBytes. A list that fails is ErrCorrupt —
// the read fails, typed, and the files stay for pandafsck.
func chunkJobsFromManifest(spec ArraySpec, m *storage.Manifest) ([]chunkJob, error) {
	jobs := make([]chunkJob, 0, len(m.Chunks))
	end := int64(0)
	for _, c := range m.Chunks {
		if c.ChunkIdx < 0 || c.ChunkIdx >= spec.Disk.NumChunks() {
			return nil, fmt.Errorf("manifest lists chunk %d of %d: %w", c.ChunkIdx, spec.Disk.NumChunks(), ErrCorrupt)
		}
		reg := spec.Disk.Chunk(c.ChunkIdx)
		if want := reg.NumElems() * int64(spec.ElemSize); c.Bytes != want {
			return nil, fmt.Errorf("manifest gives chunk %d %d bytes, the schema %d: %w", c.ChunkIdx, c.Bytes, want, ErrCorrupt)
		}
		if c.Offset < end || c.Offset+c.Bytes > m.TotalBytes {
			return nil, fmt.Errorf("manifest puts chunk %d at [%d, %d) of %d bytes, after one ending at %d: %w",
				c.ChunkIdx, c.Offset, c.Offset+c.Bytes, m.TotalBytes, end, ErrCorrupt)
		}
		end = c.Offset + c.Bytes
		jobs = append(jobs, chunkJob{ChunkIdx: c.ChunkIdx, Region: reg, FileOffset: c.Offset})
	}
	return jobs, nil
}

// sameChunkList reports whether a manifest lists exactly the chunk jobs
// — same chunks, same order, same offsets and lengths, planned bytes in
// all — so that a plan derived from the jobs is the plan for the file.
func sameChunkList(m *storage.Manifest, jobs []chunkJob, elemSize int, planned int64) bool {
	if len(m.Chunks) != len(jobs) || m.TotalBytes != planned {
		return false
	}
	for i, c := range m.Chunks {
		job := jobs[i]
		if c.ChunkIdx != job.ChunkIdx || c.Offset != job.FileOffset || c.Bytes != job.Region.NumElems()*int64(elemSize) {
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

// serverFileBytes is the total size of the file array a stores on
// server index s.
func serverFileBytes(a ArraySpec, numServers, s int) int64 {
	var total int64
	for idx := s; idx < a.Disk.NumChunks(); idx += numServers {
		total += a.Disk.Chunk(idx).NumElems() * int64(a.ElemSize)
	}
	return total
}

// planSubchunks expands one array's chunk jobs on one server into the
// ordered list of sub-chunk jobs, computing for each the clients that
// hold a part of it. The order — chunks in assignment order, sub-chunks
// in row-major order within each chunk — makes every file access
// strictly sequential.
func planSubchunks(arrayIdx int, a ArraySpec, jobs []chunkJob, subchunkBytes int64) []subchunkJob {
	var out []subchunkJob
	for _, job := range jobs {
		off := job.FileOffset
		for _, sub := range array.SplitContiguous(job.Region, a.ElemSize, subchunkBytes) {
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
