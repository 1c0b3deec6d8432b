package core

import (
	"fmt"

	"panda/internal/array"
)

// ArraySpec declares one array taking part in a collective operation:
// its name (which prefixes the per-server file names), element size, and
// its two schemas. The memory schema distributes the array across the
// compute nodes — client rank r holds memory chunk r — and the disk
// schema distributes it across the I/O nodes' files, chunks assigned
// round-robin to servers. With identical schemas Panda uses "natural
// chunking", the paper's fast path.
type ArraySpec struct {
	Name     string
	ElemSize int
	Mem      array.Schema
	Disk     array.Schema
	// SubchunkBytes, when positive, overrides the deployment's
	// sub-chunk size limit for this array — the paper's future-work
	// "explicitly request sub-chunked schemas". Zero uses the
	// deployment default (1 MB in the paper).
	SubchunkBytes int64
}

// Validate checks the spec against a deployment configuration.
func (a ArraySpec) Validate(cfg Config) error { return a.validateN(cfg, cfg.NumClients) }

// validateN is Validate against an explicit client-group size: service
// deployments check a spec against the submitting session's member
// count, not the deployment's client-rank capacity.
func (a ArraySpec) validateN(cfg Config, nclients int) error {
	if a.Name == "" {
		return fmt.Errorf("core: array with empty name")
	}
	if a.ElemSize <= 0 {
		return fmt.Errorf("core: array %s: element size %d", a.Name, a.ElemSize)
	}
	if err := a.Mem.Validate(); err != nil {
		return fmt.Errorf("core: array %s memory schema: %w", a.Name, err)
	}
	if err := a.Disk.Validate(); err != nil {
		return fmt.Errorf("core: array %s disk schema: %w", a.Name, err)
	}
	if len(a.Mem.Shape) != len(a.Disk.Shape) {
		return fmt.Errorf("core: array %s: memory rank %d != disk rank %d", a.Name, len(a.Mem.Shape), len(a.Disk.Shape))
	}
	for d := range a.Mem.Shape {
		if a.Mem.Shape[d] != a.Disk.Shape[d] {
			return fmt.Errorf("core: array %s: memory shape %v != disk shape %v", a.Name, a.Mem.Shape, a.Disk.Shape)
		}
	}
	if a.Mem.NumChunks() != nclients {
		return fmt.Errorf("core: array %s: memory schema has %d chunks for %d clients",
			a.Name, a.Mem.NumChunks(), nclients)
	}
	if a.SubchunkBytes < 0 || a.SubchunkBytes > maxSubchunkBytes {
		return fmt.Errorf("core: array %s: SubchunkBytes = %d, must be in [0, %d] (one transport frame)", a.Name, a.SubchunkBytes, maxSubchunkBytes)
	}
	if int64(a.ElemSize) > a.subchunkBytes(cfg) {
		return fmt.Errorf("core: array %s: element size %d exceeds sub-chunk limit %d",
			a.Name, a.ElemSize, a.subchunkBytes(cfg))
	}
	return nil
}

// subchunkBytes is the effective sub-chunk limit for this array under
// the given deployment.
func (a ArraySpec) subchunkBytes(cfg Config) int64 {
	if a.SubchunkBytes > 0 {
		return a.SubchunkBytes
	}
	return cfg.subchunkBytes()
}

// MemChunk returns the region client rank holds.
func (a ArraySpec) MemChunk(client int) array.Region { return a.Mem.Chunk(client) }

// MemChunkBytes returns the buffer size client rank must provide.
func (a ArraySpec) MemChunkBytes(client int) int64 {
	return a.Mem.Chunk(client).NumElems() * int64(a.ElemSize)
}

// TotalBytes is the byte size of the whole array.
func (a ArraySpec) TotalBytes() int64 { return a.Mem.TotalBytes(a.ElemSize) }

// FileName is the file this array stores on the given server index,
// with the operation's name suffix (e.g. ".t3" for timestep 3, ".ckpt"
// for checkpoints, "" for plain writes).
func (a ArraySpec) FileName(suffix string, server int) string {
	return fmt.Sprintf("%s%s.%d", a.Name, suffix, server)
}

// validateSpecsN validates specs against an explicit client-group size
// (the session's member count under a service deployment).
func validateSpecsN(cfg Config, nclients int, specs []ArraySpec) error {
	if len(specs) == 0 {
		return fmt.Errorf("core: collective operation with no arrays")
	}
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if err := s.validateN(cfg, nclients); err != nil {
			return err
		}
		if seen[s.Name] {
			return fmt.Errorf("core: duplicate array name %q in one operation", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}
