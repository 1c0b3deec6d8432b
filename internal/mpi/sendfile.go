package mpi

import (
	"errors"
	"fmt"
	"io"
	"os"

	"panda/internal/bufpool"
)

// sendfile.go: file-range sends. A Panda server reading naturally
// chunked data sends ranges of its array file that the kernel already
// holds in the page cache. Reading a range into user memory only to
// write it to a socket costs two copies a byte; a transport that hands
// the range to the kernel (sendfile, on Linux) pays neither.

// ErrShortFile is what SendFile reports when the file ended inside the
// range — it was truncated or replaced after the caller sized the frame.
// The frame still went out whole, its tail zeros.
var ErrShortFile = errors.New("mpi: file ended inside the range being sent")

// FileComm is implemented by communicators that can send a file range
// without copying it through user memory. SendFile delivers hdr followed
// by n bytes of f from off as one ordinary message: receivers see a
// single contiguous Data slice and cannot tell which send path produced
// it. Like SendVec's segments, hdr and f are used only until SendFile
// returns.
type FileComm interface {
	Comm
	// SendFile sends hdr | f[off:off+n] and reports whether the range went
	// from the page cache to a socket with no copy in user memory (false
	// where the destination's mailbox is in this process: one pooled
	// copy). A range the file does not hold goes out as zeros, so the frame
	// is always whole, and is reported as ErrShortFile; any other error is
	// the file's read error. A broken link is not an error here: the
	// transport takes it down as a failed Send does.
	SendFile(to, tag int, hdr []byte, f *os.File, off int64, n int) (bool, error)
}

// FileRoute returns c's file-range path, or nil when it has none on this
// system. It is the first FileComm down c's chain of observers
// (capable): a hub endpoint, dialed or local, on Linux. In-process,
// mesh and simulated transports have none, FaultComm and every other
// interposer hide their endpoint's, and off Linux no transport has one.
func FileRoute(c Comm) FileComm {
	if !zeroCopyFiles {
		return nil
	}
	fc, _ := capable[FileComm](c)
	return fc
}

// fileFrame reads a file range into a pooled frame behind hdr: how a
// range reaches a mailbox in this process, which must own what it parks.
func fileFrame(hdr []byte, f *os.File, off int64, n int) ([]byte, error) {
	frame := bufpool.GetRaw(len(hdr) + n)
	copy(frame, hdr)
	return frame, readFileRange(f, frame[len(hdr):], off)
}

// readFileRange fills p from f at off. What the file does not hold is
// zeroed, so a frame built around p stays whole.
func readFileRange(f *os.File, p []byte, off int64) error {
	k, err := f.ReadAt(p, off)
	if k == len(p) {
		return nil
	}
	clear(p[k:])
	if err == io.EOF {
		return shortFile(k, len(p), off)
	}
	return err
}

func shortFile(got, n int, off int64) error {
	return fmt.Errorf("%w: %d of %d bytes at offset %d", ErrShortFile, got, n, off)
}

// zeros pads a file frame whose range ended early.
var zeros [32 << 10]byte

func writeZeros(w io.Writer, n int) error {
	for n > 0 {
		k, err := w.Write(zeros[:min(n, len(zeros))])
		if err != nil {
			return err
		}
		n -= k
	}
	return nil
}
