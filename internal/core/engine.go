package core

import (
	"fmt"
	"os"
	"time"

	"panda/internal/array"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// The server engine.
//
// A server's share of one collective operation is a three-stage
// pipeline:
//
//	planner  — PlaceChunks/planSubchunks (pure math, runs inline);
//	mover    — the network stage: pulls pieces from clients (writes) or
//	           scatters them (reads), and owns all deadline, retry and
//	           abort handling: the operation's executor (sched.go).
//	storage  — the disk stage (disksched.go): the node's diskSched
//	           activity, which serves a window of outstanding requests
//	           per operation while every file is still accessed in plan
//	           order. A window of zero — submit one request, wait for it —
//	           is the paper's strictly serial loop, byte-for-byte
//	           reproducing its timings; a wider one overlaps disk time
//	           with network time.
//
// The window follows from the knobs: writes keep max(2, Pipeline)
// outstanding when Sched.MaxInflight > 0 or Pipeline >= 2 and none
// otherwise; reads keep ReadAhead beyond the sub-chunk in hand.
//
// One read skips the storage stage altogether: an array whose every
// piece is contiguous in its sub-chunk — so a contiguous range of the
// server's file — read from a host file (storage.HostFile) over a
// transport that can send a file range itself (mpi.FileRoute: the
// socket transports, on Linux). The mover opens and size-checks the file
// itself, then hands the transport each piece's file range behind its
// header (fileSource, Server.sendFile); sendfile moves it from the page
// cache to the client's socket with no copy through this process, where
// the stage preads it into a pooled buffer and the mover writevs it back
// out. Plan order holds: the mover still walks the plan sub-chunk by
// sub-chunk and piece by piece, so the file is read front to back.
// Handle ownership holds: the file is the mover's, opened and closed by
// it, and the transport borrows it only for the duration of one
// SendFile. Strided pieces (they need a gather), simulated and in-memory
// disks (there is no host file, so no virtual-time measurement can
// change), wrapped disks and FaultComm (whose plan must see every frame)
// read through the stage.
//
// Failure model across the stage boundary: the mover keeps exclusive
// ownership of deadlines, retries and aborts. A storage error comes back
// in the failed request's reply and sticks to the sink, so the mover
// sees it at its next hand-off (or at finish) and fails the operation
// with the real cause. A mover abort calls abandon, which waits out
// every request still in the window — the activity returns their pooled
// buffers to bufpool as it retires them — and closes the file, so an
// operation never leaves work behind in the shared activity.
//
// Observability: disk spans land on the "serverN/storage" track (a
// separate Chrome thread under the server's process), stall spans on the
// mover's own track, so a trace viewer shows overlap directly as
// concurrent disk and network spans. Stall spans shorter than 1µs are
// suppressed — a hand-off that finds its reply waiting costs nanoseconds
// and is not a stall.

// stallSpanFloor filters hand-off noise out of stall spans; the stall
// *counters* still accumulate every nanosecond.
const stallSpanFloor = time.Microsecond

// readSource produces sub-chunks in plan order: the stage, or the
// zero-copy file arm. Exactly one of finish or abandon must be called.
type readSource interface {
	next(sj subchunkJob) ([]byte, error)
	finish() error
	abandon()
	report() (diskNanos, stallNanos int64)
}

// mergeStage folds a completed stage's accounting into the server
// stats: the disk time the window hid is what the storage stage spent
// serving this operation beyond the mover's waits for it.
func (s *Server) mergeStage(diskNanos, stallNanos int64) {
	s.cnt[cStallNanos].Add(stallNanos)
	if hidden := diskNanos - stallNanos; hidden > 0 {
		s.cnt[cOverlapNanos].Add(hidden)
	}
}

// newReadSource is newWriteSink's read-side twin: the zero-copy arm
// when the whole array can go from the file to the transport (see the
// header), the storage stage with ReadAhead reads outstanding otherwise.
func (s *Server) newReadSource(name string, subs []subchunkJob, want int64) (readSource, error) {
	if fc := s.fileRoute(subs); fc != nil {
		f, err := s.openForRead(s.disk, name, want)
		if err != nil {
			return nil, err
		}
		if hf := storage.HostFile(f); hf != nil {
			if fileSourceHook != nil {
				fileSourceHook(hf)
			}
			return &fileSource{f: f, hf: hf, fc: fc}, nil
		}
		f.Close() // no host file behind the handle: the stage opens its own
	}
	return s.newSchedReadSource(name, subs, want)
}

// openForRead opens the array file and checks it holds this server's
// share — want bytes, schema-derived for legacy files and taken from
// the manifest for committed epochs (whose degraded layout may differ
// from the schema's round-robin assignment).
func (s *Server) openForRead(d storage.Disk, name string, want int64) (storage.File, error) {
	f, err := d.Open(name)
	if err != nil {
		return nil, err
	}
	if sz, serr := f.Size(); serr != nil {
		f.Close()
		return nil, serr
	} else if sz < want {
		f.Close()
		return nil, fmt.Errorf("file %s holds %d bytes, schema needs %d", name, sz, want)
	}
	return f, nil
}

// fileRoute returns the transport's file-range path when every piece of
// subs is contiguous in its sub-chunk, nil otherwise.
func (s *Server) fileRoute(subs []subchunkJob) mpi.FileComm {
	fc := mpi.FileRoute(s.comm)
	if fc == nil {
		return nil
	}
	for _, sj := range subs {
		for _, pc := range sj.Pieces {
			if _, contig := array.ContiguousIn(sj.Region, pc.Region); !contig {
				return nil
			}
		}
	}
	return fc
}

// fileSourceHook, when set by a test, sees the host file of every
// zero-copy read right after its size check.
var fileSourceHook func(*os.File)

// fileSource is the zero-copy arm: it reads nothing. The mover sends
// each piece's range of hf through fc (Server.sendFile) and the
// transport reads it, so next hands out no buffer.
type fileSource struct {
	f  storage.File
	hf *os.File
	fc mpi.FileComm
}

func (k *fileSource) next(subchunkJob) ([]byte, error) { return nil, nil }

func (k *fileSource) finish() error { k.f.Close(); return nil }

func (k *fileSource) abandon() { k.f.Close() }

func (k *fileSource) report() (int64, int64) { return 0, 0 }
