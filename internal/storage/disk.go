// Package storage provides the file systems Panda servers store array
// chunks in. The paper ran on one AIX file system per I/O node of the
// NAS IBM SP2; this package supplies:
//
//   - OSDisk: real files under a directory, for functional tests and
//     runnable examples;
//   - MemDisk: an in-memory file store (optionally discarding data, for
//     large-scale performance runs where only sizes matter);
//   - SimDisk: a wrapper charging virtual time per request according to
//     an AIX cost model calibrated from the paper's Table 1, including
//     request-size-dependent throughput, seek penalties, and a buffer
//     cache with explicit flush (the paper flushes the cache before
//     every read experiment).
//
// The "infinitely fast disk" experiments (paper Figures 5, 6, 9 — file
// system calls commented out) use a bare discarding MemDisk, which costs
// nothing.
package storage

import "io"

// Disk is one I/O node's file system.
type Disk interface {
	// Create opens the named file for read/write, truncating it if it
	// exists.
	Create(name string) (File, error)
	// Open opens an existing named file for read/write.
	Open(name string) (File, error)
	// Remove deletes the named file.
	Remove(name string) error
	// Rename atomically replaces newName with oldName's file (POSIX
	// rename semantics: the destination is overwritten if present).
	// The epoch-commit protocol relies on this being the one atomic
	// transition from "old epoch" to "new epoch".
	Rename(oldName, newName string) error
	// List returns the names of every file on the disk, sorted; the
	// scrubber and the rebalance (elastic.go) walk it. No collective
	// operation lists: the commit path removes what it supersedes by name.
	List() ([]string, error)
	// FlushCache drops whatever cache the implementation keeps, so the
	// next reads hit the media. Mirrors the paper's methodology of
	// writing and deleting a large temporary file before reads.
	FlushCache()
}

// File is an open file supporting positioned I/O.
type File interface {
	io.ReaderAt
	io.WriterAt
	// Sync flushes buffered writes to the media (fsync).
	Sync() error
	// Size reports the current file length in bytes.
	Size() (int64, error)
	Close() error
}
