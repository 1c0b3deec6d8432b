//go:build !linux || arm

package storage

// startWriteback is a no-op where sync_file_range does not exist (or,
// on linux/arm, is not in package syscall): writeback starts when the
// kernel or the caller's Sync decides, as it always did.
func startWriteback(fd int, off int64, n int) error { return nil }
