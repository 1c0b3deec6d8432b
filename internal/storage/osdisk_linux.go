//go:build !arm

package storage

import "syscall"

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writeback of the
// range's dirty pages and return without waiting for it.
const syncFileRangeWrite = 2

// startWriteback asks the kernel to begin writing [off, off+n) of fd to
// the media. It is no barrier — nothing is waited for, no metadata or
// journal commit is forced — so it moves work earlier without promising
// anything; the caller's Sync still does.
func startWriteback(fd int, off int64, n int) error {
	return syscall.SyncFileRange(fd, off, int64(n), syncFileRangeWrite)
}
