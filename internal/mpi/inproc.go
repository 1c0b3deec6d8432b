package mpi

import (
	"sync"
	"time"

	"panda/internal/bufpool"
)

// World is an in-process communicator running in real time: each rank is
// an ordinary goroutine, and messages pass through per-rank mailboxes.
type World struct {
	size  int
	boxes []*mailbox
}

// NewWorld creates a communicator with the given number of ranks.
func NewWorld(size int) *World {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	w := &World{size: size, boxes: make([]*mailbox, size)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w
}

// Comm returns the endpoint for the given rank. Each rank's endpoint
// must be used by a single goroutine.
func (w *World) Comm(rank int) Comm {
	if rank < 0 || rank >= w.size {
		panic("mpi: rank out of range")
	}
	return &inprocComm{endpoint: endpoint{rank: rank, size: w.size, box: w.boxes[rank]}, world: w}
}

// mailbox is an unbounded store of delivered messages with matched
// (source, tag) receive.
type mailbox struct {
	mu   sync.Mutex
	cond sync.Cond
	msgs []Message
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond.L = &b.mu
	return b
}

func (b *mailbox) put(m Message) {
	b.mu.Lock()
	b.msgs = append(b.msgs, m)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// getWait is the matched receive shared by the real-time transports
// (inproc, tcp, mesh), bounded by the wall clock. timeout <= 0 waits forever.
// check, when non-nil, runs under the mailbox lock on every pass and
// aborts the wait by returning a non-nil error (used for dead links and
// lost peers); it is consulted only after the queue has been scanned, so
// already-delivered messages are still receivable after a failure.
func (b *mailbox) getWait(from, tag int, timeout time.Duration, check func() error) (Message, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		// The timer takes the lock before broadcasting so the wakeup
		// cannot fall between a waiter's deadline check and its Wait.
		t := time.AfterFunc(timeout, func() {
			b.mu.Lock()
			b.mu.Unlock() //nolint:staticcheck // empty section synchronizes with waiters
			b.cond.Broadcast()
		})
		defer t.Stop()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i, m := range b.msgs {
			if matches(m, from, tag) {
				b.msgs = append(b.msgs[:i], b.msgs[i+1:]...)
				return m, nil
			}
		}
		if check != nil {
			if err := check(); err != nil {
				return Message{}, err
			}
		}
		if timeout > 0 && !time.Now().Before(deadline) {
			return Message{}, ErrTimeout
		}
		b.cond.Wait()
	}
}

// inprocComm receives as every real-time endpoint does (tcp.go's
// endpoint, over the rank's World mailbox); in-process ranks cannot die,
// so its link error and dead-peer set stay empty: Recv never panics,
// RecvTimeout fails only with ErrTimeout and PeerLost is always false.
type inprocComm struct {
	endpoint
	world *World
}

func (c *inprocComm) Send(to, tag int, data []byte) {
	checkPeer(c, to)
	checkTag(tag)
	cp := make([]byte, len(data))
	copy(cp, data)
	c.world.boxes[to].put(Message{Source: c.rank, Tag: tag, Data: cp})
}

func (c *inprocComm) SendOwned(to, tag int, data []byte) {
	checkPeer(c, to)
	checkTag(tag)
	c.world.boxes[to].put(Message{Source: c.rank, Tag: tag, Data: data})
}

// SendVec implements VectorComm. In-process delivery parks messages in
// a mailbox indefinitely, so the borrowed payload cannot be passed
// through — it is concatenated with the header into one pooled frame
// (the same single copy a flattened send pays, minus the intermediate
// allocation). Reports false: the payload copy was not avoided.
func (c *inprocComm) SendVec(to, tag int, hdr, payload []byte) bool {
	checkPeer(c, to)
	checkTag(tag)
	frame := bufpool.GetRaw(len(hdr) + len(payload))
	copy(frame, hdr)
	copy(frame[len(hdr):], payload)
	c.world.boxes[to].put(Message{Source: c.rank, Tag: tag, Data: frame})
	return false
}

type doneRequest struct{}

func (doneRequest) Wait() {}

func (c *inprocComm) Isend(to, tag int, data []byte) Request {
	c.Send(to, tag, data)
	return doneRequest{}
}
