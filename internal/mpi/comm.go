// Package mpi provides the message-passing substrate Panda runs on: a
// small subset of MPI semantics — ranked endpoints and tagged blocking
// point-to-point messages with wildcard receives. Panda's own
// broadcasts are forwarded hop by hop over TreeChildren (topology.go).
//
// Its transports are interchangeable behind Comm:
//
//   - World (inproc.go): every rank is a goroutine in this process and
//     messages move through in-memory queues in real time. Used by
//     core.Run, the functional tests and the runnable examples.
//   - Hub (tcp.go): a TCP relay every frame goes through. A rank attaches
//     from another process by DialComm, or from the hub's own process by
//     Hub.Local (local.go), which opens no socket. The daemon's transport.
//   - Mesh (mesh.go): every pair of ranks talks over its own TCP
//     connection once a Registry has rendezvoused them (JoinMesh).
//   - SimWorld (simnet.go): every rank is a vtime process and each
//     message is charged latency and bandwidth according to a LinkConfig
//     calibrated from the paper's Table 1 (IBM SP2: 43 µs, 34 MB/s),
//     with per-direction port contention. Used for the performance
//     experiments.
//
// The original Panda 2.0 used MPI-F on the SP2; this package is the
// reproduction's stand-in (see DESIGN.md, substitution table).
package mpi

import (
	"errors"
	"time"
)

// ErrTimeout is returned by RecvTimeout when the wait bound expires
// before a matching message arrives.
var ErrTimeout = errors.New("mpi: receive timed out")

// ErrPeerLost is returned by RecvTimeout when the transport knows the
// awaited peer (or this endpoint's own link) is gone and the message can
// never arrive.
var ErrPeerLost = errors.New("mpi: peer lost")

// AnySource matches messages from every rank when passed to Recv.
const AnySource = -1

// AnyTag matches every tag when passed to Recv.
const AnyTag = -1

// Message is a received point-to-point message.
type Message struct {
	Source int
	Tag    int
	Data   []byte
	// Placed counts the payload bytes that went straight into the
	// receiver's posted receive (Placer) instead of into Data, which
	// then holds only the frame's header: read there by a dialed
	// endpoint, or written there by an in-process sender (PlaceComm).
	// Zero on every other path; it never goes on the wire.
	Placed int
}

// Request represents an in-flight nonblocking send.
type Request interface {
	// Wait blocks until the send buffer may be reused.
	Wait()
}

// Comm is one rank's endpoint into a communicator. All calls are made
// from the single goroutine (or vtime process) that owns the rank.
type Comm interface {
	// Rank is this endpoint's id, in [0, Size).
	Rank() int
	// Size is the number of ranks in the communicator.
	Size() int
	// Send delivers data to rank `to` with the given tag and blocks
	// until the caller may reuse data. data is copied.
	Send(to, tag int, data []byte)
	// SendOwned is Send but transfers ownership of data to the
	// communicator: the caller must not touch data afterwards. It
	// avoids a copy for freshly allocated buffers. data must be a whole
	// buffer nobody else references — not a view of a larger one, not a
	// buffer the caller keeps a second slice of: the receiver hands it
	// to bufpool.Put, which adopts any slice whose capacity is a class
	// size and will give it out again.
	SendOwned(to, tag int, data []byte)
	// Isend starts a send and returns immediately; the buffer is
	// owned by the communicator until Wait returns.
	Isend(to, tag int, data []byte) Request
	// Recv blocks until a message matching (from, tag) arrives and
	// returns it. from may be AnySource and tag may be AnyTag.
	Recv(from, tag int) Message
}

// DeadlineComm is implemented by communicators that support bounded
// receives. All transports in this package implement it.
type DeadlineComm interface {
	Comm
	// RecvTimeout is Recv with a bound. timeout > 0 waits at most that
	// long and returns ErrTimeout if no matching message arrived.
	// timeout <= 0 waits forever — like Recv — but still surfaces
	// transport-level failures (a dead link, a lost peer) as
	// ErrPeerLost instead of panicking.
	RecvTimeout(from, tag int, timeout time.Duration) (Message, error)
}

// PeerChecker is implemented by communicators that can observe peer
// death (TCP hub notifications, mesh connection loss, injected
// crashes). The in-process World and simnet share their receive half
// (Endpoint), whose ranks cannot die, and always answer false.
type PeerChecker interface {
	// PeerLost reports whether the transport knows rank is gone.
	PeerLost(rank int) bool
}

// A wrapper around a Comm is one of two kinds, and says which at its
// type. An observer (a router's per-operation view, a tracer) must not
// change what the program does: it has an Unwrap() Comm method, and the
// capability probes (FileRoute, PlaceRoute, PostReceives, SendSegments,
// and the link error a routed view fails with) look through it to the
// endpoint it wraps, as errors.As looks through a wrapped error. An
// interposer (FaultComm, or a test wrapper that delays or drops frames)
// must see every byte, so it has no Unwrap and hides every fast path
// behind it on purpose.

// capable returns the first Comm in c's chain of observers that has
// capability T: c itself, else what its Unwrap returns, and so on. The
// walk stops at the first Comm that has neither T nor Unwrap.
func capable[T any](c Comm) (t T, ok bool) {
	for {
		if t, ok = c.(T); ok {
			return t, true
		}
		w, observer := c.(interface{ Unwrap() Comm })
		if !observer {
			return t, false
		}
		c = w.Unwrap()
	}
}

func matches(m Message, from, tag int) bool {
	if from != AnySource && m.Source != from {
		return false
	}
	if tag != AnyTag && m.Tag != tag {
		return false
	}
	return true
}

func checkPeer(c interface{ Size() int }, to int) {
	if to < 0 || to >= c.Size() {
		panic("mpi: rank out of range")
	}
}

func checkTag(tag int) {
	if tag < 0 {
		panic("mpi: negative tag")
	}
}
