package mpi

import (
	"panda/internal/bufpool"
	"panda/internal/queue"
)

// World is an in-process communicator running in real time: each rank is
// an ordinary goroutine, and messages pass through per-rank queues.
type World struct {
	size  int
	boxes []*queue.Q[Message]
}

// NewWorld creates a communicator with the given number of ranks.
func NewWorld(size int) *World {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	w := &World{size: size, boxes: make([]*queue.Q[Message], size)}
	for i := range w.boxes {
		w.boxes[i] = queue.New[Message](nil)
	}
	return w
}

// Comm returns the endpoint for the given rank. Each rank's endpoint
// must be used by a single goroutine.
func (w *World) Comm(rank int) Comm {
	if rank < 0 || rank >= w.size {
		panic("mpi: rank out of range")
	}
	return &inprocComm{Endpoint: Endpoint{rank: rank, size: w.size, box: w.boxes[rank]}, world: w}
}

// inprocComm receives as every endpoint does (endpoint.go, over the
// rank's World queue); in-process ranks cannot die, so its link error
// and dead-peer set stay empty: Recv never panics, RecvTimeout fails
// only with ErrTimeout and PeerLost is always false.
type inprocComm struct {
	Endpoint
	world *World
}

func (c *inprocComm) Send(to, tag int, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	c.SendOwned(to, tag, cp)
}

func (c *inprocComm) SendOwned(to, tag int, data []byte) {
	checkPeer(c, to)
	checkTag(tag)
	c.world.boxes[to].Put(Message{Source: c.rank, Tag: tag, Data: data})
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
	c.world.boxes[to].Put(Message{Source: c.rank, Tag: tag, Data: frame})
	return false
}

type doneRequest struct{}

func (doneRequest) Wait() {}

func (c *inprocComm) Isend(to, tag int, data []byte) Request {
	c.Send(to, tag, data)
	return doneRequest{}
}
