package mpi

import (
	"fmt"
	"sync"
	"time"

	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/queue"
)

// Endpoint is the receive half of every Comm in the tree — in-process,
// hub-dialed, hub-local, mesh, simulated, and the per-operation view a
// message router hands its executors: the rank's queue, the link error
// that fails its receives, and the peers the transport knows are gone
// (announced by the hub; on the mesh, those whose link broke; in process
// and under simulation, never any).
type Endpoint struct {
	rank, size int
	box        *queue.Q[Message]
	clk        clock.Clock // the consumer's own clock: a simulated rank parks its process
	under      Comm        // a routed endpoint's transport, whose link and peers it shares; nil on a transport's own
	link       linkState
}

type linkState struct {
	sync.Mutex
	err  error        // fails the endpoint's receives
	dead map[int]bool // peers the transport declared gone
}

func newEndpoint(rank, size int) Endpoint {
	return Endpoint{rank: rank, size: size, box: queue.New[Message](nil), link: linkState{dead: make(map[int]bool)}}
}

// NewEndpoint returns the receive half a message router layers on
// under: it receives from box, which the router fills, on the clock of
// the activity that consumes it, and answers PeerLost — and fails its
// receives when the link goes down — as under does. The router wakes
// box when it finds the link down, so a blocked receive sees it.
func NewEndpoint(under Comm, box *queue.Q[Message], clk clock.Clock) Endpoint {
	return Endpoint{rank: under.Rank(), size: under.Size(), box: box, clk: clk, under: under}
}

// accept takes one frame addressed to this endpoint, and ownership of
// data. A hub control frame (wire tag zero) marks its source dead — or,
// with payload {1}, revived: the hub re-issued the rank.
func (e *Endpoint) accept(source int, wireTag uint32, data []byte) {
	if wireTag == tagControlWire {
		e.markPeer(source, len(data) > 0 && data[0] == 1)
		bufpool.Put(data)
		return
	}
	e.box.Put(Message{Source: source, Tag: int(wireTag) - 1, Data: data})
}

func (e *Endpoint) markPeer(rank int, revived bool) {
	e.link.Lock()
	if revived {
		delete(e.link.dead, rank)
	} else {
		e.link.dead[rank] = true
	}
	e.link.Unlock()
	e.box.Wake()
}

// failReads records the link error and wakes a blocked receiver: plain
// Recv then panics with the transport failure (Comm's interface has no
// error returns; a dead link is unrecoverable for an SPMD run), bounded
// receives fail with ErrPeerLost.
func (e *Endpoint) failReads(err error) {
	e.link.Lock()
	e.link.err = err
	e.link.Unlock()
	e.box.Wake()
}

// linkErr is the error that took the endpoint's link down, nil while it
// is up.
func (e *Endpoint) linkErr() error {
	if e.under != nil {
		return linkErrOf(e.under)
	}
	e.link.Lock()
	defer e.link.Unlock()
	return e.link.err
}

// linkErrOf is c's link failure, read from the first Comm down its
// chain of observers that records one (capable); nil for a link that is
// up or for an endpoint that cannot tell.
func linkErrOf(c Comm) error {
	if l, ok := capable[interface{ linkErr() error }](c); ok {
		return l.linkErr()
	}
	return nil
}

func (e *Endpoint) Rank() int { return e.rank }
func (e *Endpoint) Size() int { return e.size }

// recv is the matched wait under Recv and RecvTimeout. lost runs when
// nothing queued matches, so messages delivered before a failure are
// still receivable after it.
func (e *Endpoint) recv(from, tag int, timeout time.Duration, lost func() error) (Message, error) {
	if from != AnySource {
		checkPeer(e, from)
	}
	m, err := e.box.Pop(e.clk, func(m Message) bool { return matches(m, from, tag) }, lost, timeout)
	if err == queue.ErrTimeout {
		err = ErrTimeout
	}
	return m, err
}

// Recv panics when the link fails: Comm's interface has no error return.
func (e *Endpoint) Recv(from, tag int) Message {
	m, err := e.recv(from, tag, 0, e.linkErr)
	if err != nil {
		panic(fmt.Sprintf("mpi: recv on rank %d: %v", e.rank, err))
	}
	return m
}

// RecvTimeout implements DeadlineComm. It fails with ErrPeerLost when
// this endpoint's own link is down, or when waiting on a specific rank
// the transport knows is gone. AnySource waits do not fail on peer
// deaths — another rank may still satisfy them — and rely on the
// timeout bound instead.
func (e *Endpoint) RecvTimeout(from, tag int, timeout time.Duration) (Message, error) {
	return e.recv(from, tag, timeout, func() error {
		if err := e.linkErr(); err != nil {
			return fmt.Errorf("mpi: recv on rank %d: %v: %w", e.rank, err, ErrPeerLost)
		}
		if from != AnySource && e.PeerLost(from) {
			return fmt.Errorf("mpi: rank %d is gone: %w", from, ErrPeerLost)
		}
		return nil
	})
}

// PeerLost implements PeerChecker from the recorded deaths.
func (e *Endpoint) PeerLost(rank int) bool {
	if e.under != nil {
		pc, ok := e.under.(PeerChecker)
		return ok && pc.PeerLost(rank)
	}
	e.link.Lock()
	defer e.link.Unlock()
	return e.link.dead[rank]
}
