//go:build linux

package mpi

import "syscall"

// zeroCopyFiles: this system's kernel moves a file range to a socket
// itself (sendfile), so the socket transports offer FileComm.
const zeroCopyFiles = true

// sendStep is a file frame's raw-socket write callback. It hands the
// kernel what is left of the range and returns false — wait until the
// socket drains, then call again — when the socket is full. It returns
// true once the range is sent, when the file has no more to give
// (sendfile returns 0), or on an error, which it keeps for writeFile to
// tell the file's from the socket's.
func (w *frameWriter) sendStep(sock uintptr) bool {
	for w.left > 0 {
		k, err := syscall.Sendfile(int(sock), w.src, &w.off, w.left)
		if k > 0 {
			w.left -= k
		}
		switch {
		case err == syscall.EAGAIN:
			return false
		case err == syscall.EINTR:
		case err != nil:
			w.srcErr = err
			return true
		case k == 0:
			return true
		}
	}
	return true
}
