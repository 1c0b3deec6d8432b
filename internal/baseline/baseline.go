// Package baseline implements the collective-I/O strategies the paper
// compares server-directed I/O against (§4):
//
//   - ClientDirected: independent, client-initiated I/O in the style of
//     systems with traditional caching (e.g. Intel CFS). Each compute
//     node computes for itself where its data lives in the files —
//     exactly the burden the paper says applications should not carry —
//     and issues its strided read/write requests in its own order.
//     Requests from different nodes interleave at the I/O nodes, so the
//     disks seek constantly.
//
//   - TwoPhase: the two-phase strategy of Bordawekar, del Rosario and
//     Choudhary (Supercomputing '93). Compute nodes first permute the
//     data among themselves so each holds a portion conforming to the
//     disk layout, then write large contiguous runs.
//
// Both baselines produce byte-identical files to Panda for the same
// disk schema (tested), differing only in traffic pattern and timing —
// which is the point of the comparison.
package baseline

import (
	"panda/internal/array"
	"panda/internal/core"
)

// Strategy names a baseline.
type Strategy int

const (
	// ClientDirected is independent client-initiated strided I/O.
	ClientDirected Strategy = iota
	// TwoPhase permutes in memory first, then writes large runs.
	TwoPhase
)

func (s Strategy) String() string {
	if s == TwoPhase {
		return "two-phase"
	}
	return "client-directed"
}

// fileTarget maps a region of the global array to a byte range of one
// server's file under Panda's chunk placement.
type fileTarget struct {
	Server int
	Name   string
	Offset int64
	Bytes  int64
	Region array.Region // the run, for data extraction
	Chunk  array.Region // the disk chunk frame the run lives in
}

// fileTargets computes the per-file byte runs for the part of spec's
// disk layout that intersects sect, in chunk-index order, using Panda's
// own chunk placement and file format so outputs are interchangeable.
func fileTargets(spec core.ArraySpec, suffix string, numServers int, sect array.Region) []fileTarget {
	var out []fileTarget
	elem := int64(spec.ElemSize)
	for _, p := range core.PlaceChunks(spec, numServers, nil) {
		chunk := spec.Disk.Chunk(p.Chunk)
		piece, ok := array.Intersect(chunk, sect)
		if !ok {
			continue
		}
		for _, run := range array.ContiguousRuns(chunk, piece) {
			start, _ := array.ContiguousIn(chunk, run)
			out = append(out, fileTarget{
				Server: p.Server,
				Name:   spec.FileName(suffix, p.Server),
				Offset: p.Offset + start*elem,
				Bytes:  run.NumElems() * elem,
				Region: run,
				Chunk:  chunk,
			})
		}
	}
	return out
}

// conformingSchema is the redistribution target of two-phase I/O: the
// disk decomposition re-partitioned over the compute nodes, so that
// after phase one every compute node holds data that lands in large
// contiguous file runs. For a disk schema with as many or more chunks
// than clients the disk schema itself conforms trivially; otherwise the
// outermost BLOCK (or first) dimension is split across all clients.
func conformingSchema(spec core.ArraySpec, numClients int) (array.Schema, error) {
	rank := len(spec.Disk.Shape)
	dist := make([]array.Dist, rank)
	dist[0] = array.Block
	for d := 1; d < rank; d++ {
		dist[d] = array.Star
	}
	return array.NewSchema(spec.Disk.Shape, dist, []int{numClients})
}
