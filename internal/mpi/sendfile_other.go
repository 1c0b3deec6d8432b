//go:build !linux

package mpi

// zeroCopyFiles: without sendfile's Linux semantics no transport offers
// FileComm (FileRoute answers nil), and a server takes the buffered read
// arm. SendFile still works, by reading the range into a pooled buffer.
const zeroCopyFiles = false

func (w *frameWriter) sendStep(uintptr) bool { return true }
