// Package meta provides self-describing schema files for Panda data
// sets. The paper's ArrayGroup constructor names a schema file
// ("simulation2.schema") that records the group's layout; this package
// defines that file as JSON, and implements the sequential-consumer
// side of the paper's migration story: given the schema and the
// per-I/O-node files, reassemble any array into a single row-major
// stream on an ordinary workstation — no Panda deployment required.
package meta

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"panda/internal/array"
	"panda/internal/core"
	"panda/internal/storage"
)

// ArrayMeta describes one array of a group.
type ArrayMeta struct {
	Name     string   `json:"name"`
	Shape    []int    `json:"shape"`
	ElemSize int      `json:"elem_size"`
	MemDist  []string `json:"mem_dist"`
	MemMesh  []int    `json:"mem_mesh"`
	DiskDist []string `json:"disk_dist"`
	DiskMesh []int    `json:"disk_mesh"`
}

// GroupMeta is the schema file contents: everything a consumer needs
// to interpret a Panda file set.
type GroupMeta struct {
	// Format identifies the file ("panda-schema") and Version its
	// revision.
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Group is the ArrayGroup name.
	Group string `json:"group"`
	// IONodes is the number of I/O nodes the data is striped over.
	IONodes int `json:"io_nodes"`
	// Arrays lists the group members in write order.
	Arrays []ArrayMeta `json:"arrays"`
}

const (
	formatName    = "panda-schema"
	formatVersion = 1
)

func distStrings(ds []array.Dist) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

func parseDists(ss []string) ([]array.Dist, error) {
	out := make([]array.Dist, len(ss))
	for i, s := range ss {
		switch s {
		case "BLOCK":
			out[i] = array.Block
		case "*":
			out[i] = array.Star
		default:
			return nil, fmt.Errorf("meta: unknown distribution %q", s)
		}
	}
	return out, nil
}

// FromSpecs builds the schema document for a group.
func FromSpecs(group string, ioNodes int, specs []core.ArraySpec) GroupMeta {
	g := GroupMeta{Format: formatName, Version: formatVersion, Group: group, IONodes: ioNodes}
	for _, s := range specs {
		g.Arrays = append(g.Arrays, ArrayMeta{
			Name:     s.Name,
			Shape:    append([]int(nil), s.Mem.Shape...),
			ElemSize: s.ElemSize,
			MemDist:  distStrings(s.Mem.Dist),
			MemMesh:  append([]int(nil), s.Mem.Mesh...),
			DiskDist: distStrings(s.Disk.Dist),
			DiskMesh: append([]int(nil), s.Disk.Mesh...),
		})
	}
	return g
}

// Specs reconstructs the array specs from a schema document.
func (g GroupMeta) Specs() ([]core.ArraySpec, error) {
	if g.Format != formatName {
		return nil, fmt.Errorf("meta: not a panda schema file (format %q)", g.Format)
	}
	if g.Version != formatVersion {
		return nil, fmt.Errorf("meta: unsupported schema version %d", g.Version)
	}
	specs := make([]core.ArraySpec, len(g.Arrays))
	for i, a := range g.Arrays {
		md, err := parseDists(a.MemDist)
		if err != nil {
			return nil, err
		}
		dd, err := parseDists(a.DiskDist)
		if err != nil {
			return nil, err
		}
		mem, err := array.NewSchema(a.Shape, md, a.MemMesh)
		if err != nil {
			return nil, fmt.Errorf("meta: array %s memory schema: %w", a.Name, err)
		}
		disk, err := array.NewSchema(a.Shape, dd, a.DiskMesh)
		if err != nil {
			return nil, fmt.Errorf("meta: array %s disk schema: %w", a.Name, err)
		}
		specs[i] = core.ArraySpec{Name: a.Name, ElemSize: a.ElemSize, Mem: mem, Disk: disk}
	}
	return specs, nil
}

// Find locates one array's spec by name.
func (g GroupMeta) Find(name string) (core.ArraySpec, error) {
	specs, err := g.Specs()
	if err != nil {
		return core.ArraySpec{}, err
	}
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return core.ArraySpec{}, fmt.Errorf("meta: group %s has no array %q", g.Group, name)
}

// Save writes the schema document to path.
func Save(path string, g GroupMeta) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Load reads a schema document from path.
func Load(path string) (GroupMeta, error) {
	var g GroupMeta
	b, err := os.ReadFile(path)
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(b, &g); err != nil {
		return g, fmt.Errorf("meta: %s: %w", path, err)
	}
	if g.Format != formatName {
		return g, fmt.Errorf("meta: %s is not a panda schema file", path)
	}
	if g.IONodes <= 0 {
		return g, fmt.Errorf("meta: %s: non-positive io_nodes", path)
	}
	return g, nil
}

// Assemble streams one array into out as a single row-major
// (traditional order) byte stream: the paper's migration of Panda data
// to a sequential platform, for every disk schema. disks are the I/O
// nodes' file systems, in server order. Every chunk is read from where
// the servers' committed state says it is at the decided epoch (a
// degraded epoch's files carry the chunks of the servers that were
// down, an interrupted commit's data is still under its temp name), so
// the stream is what a collective read would return. Assemble only
// reads: it finishes no commit. A chunk no server's committed state
// holds fails typed (core.ErrNoCommittedEpoch when nothing was ever
// committed, else core.ErrCorrupt). Memory use is one copy buffer.
func Assemble(out io.WriterAt, g GroupMeta, name, suffix string, disks []storage.Disk) error {
	spec, err := g.Find(name)
	if err != nil {
		return err
	}
	// The master server, server 0, holds the decision record.
	epoch, _, err := storage.ReadDecision(disks[0], spec.Name+suffix)
	if err != nil {
		return fmt.Errorf("meta: array %s: %w (%v)", name, core.ErrCorrupt, err)
	}
	held := make([]bool, spec.Disk.NumChunks())
	for ion, d := range disks {
		c, err := core.ResolveCommitted(d, spec, spec.FileName(suffix, ion), epoch)
		var chunks []core.Placement
		if err == nil {
			chunks, err = c.Chunks(spec, g.IONodes, ion)
		}
		if err == nil {
			err = copyChunks(out, spec, d, c.Name, chunks)
		}
		if err != nil && !errors.Is(err, core.ErrNoCommittedEpoch) {
			return fmt.Errorf("meta: array %s, i/o node %d: %w", name, ion, err)
		}
		for _, p := range chunks {
			held[p.Chunk] = true
		}
	}
	for _, p := range core.PlaceChunks(spec, g.IONodes, nil) {
		if !held[p.Chunk] {
			// A core read finding no file and no decision fails the same way.
			sentinel := core.ErrNoCommittedEpoch
			if epoch > 0 {
				sentinel = core.ErrCorrupt
			}
			return fmt.Errorf("meta: array %s%s: no i/o node holds chunk %d of epoch %d: %w", name, suffix, p.Chunk, epoch, sentinel)
		}
	}
	return nil
}

// copyChunks copies the chunks file holds into their places in the
// row-major stream.
func copyChunks(out io.WriterAt, spec core.ArraySpec, d storage.Disk, file string, chunks []core.Placement) error {
	if len(chunks) == 0 {
		return nil
	}
	f, err := d.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	last := chunks[len(chunks)-1]
	if size, err := f.Size(); err != nil || size < last.Offset+last.Bytes {
		return fmt.Errorf("%s holds %d bytes of the %d its chunks need (%v): %w", file, size, last.Offset+last.Bytes, err, core.ErrCorrupt)
	}
	whole := array.Box(spec.Mem.Shape)
	elem := int64(spec.ElemSize)
	for _, p := range chunks {
		chunk := spec.Disk.Chunk(p.Chunk)
		// Copy the chunk run by run. Runs that are contiguous in the
		// global row-major output are also contiguous in the chunk's
		// file layout: a run pins the outer dimensions, ranges over
		// one, and spans the full array extent in the inner ones —
		// which the chunk therefore also covers fully.
		for _, run := range array.ContiguousRuns(whole, chunk) {
			inStart, _ := array.ContiguousIn(chunk, run)
			dst := io.NewOffsetWriter(out, whole.LinearIndex(run.Lo)*elem)
			n := run.NumElems() * elem
			if _, err := io.CopyN(dst, io.NewSectionReader(f, p.Offset+inStart*elem, n), n); err != nil {
				return fmt.Errorf("reading %s chunk %d: %w", file, p.Chunk, err)
			}
		}
	}
	return nil
}
