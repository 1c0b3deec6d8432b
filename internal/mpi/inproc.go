package mpi

import (
	"sync/atomic"

	"panda/internal/bufpool"
	"panda/internal/queue"
)

// World is an in-process communicator running in real time: each rank is
// an ordinary goroutine, and messages pass through per-rank queues. A
// rank whose owner posted receives (PostReceives) has them in its place
// slot, where every sender in the process finds them.
type World struct {
	size  int
	boxes []*queue.Q[Message]
	place []atomic.Pointer[Placer]
}

// NewWorld creates a communicator with the given number of ranks.
func NewWorld(size int) *World {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	w := &World{size: size, boxes: make([]*queue.Q[Message], size), place: make([]atomic.Pointer[Placer], size)}
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
// through. When the receiver has a place for it (Reserve) the payload
// is copied there and the header goes alone: the receiver copies
// nothing, and SendVec reports true. Otherwise header and payload are
// concatenated into one pooled frame (the same single copy a flattened
// send pays, minus the intermediate allocation) and the receiver copies
// the payload out of it: false, the payload copy was not avoided.
func (c *inprocComm) SendVec(to, tag int, hdr, payload []byte) bool {
	if r := c.Reserve(to, tag, hdr, len(payload)); r.Dst != nil {
		copy(r.Dst, payload)
		own := bufpool.GetRaw(len(hdr))
		copy(own, hdr)
		c.Deliver(r, own)
		return true
	}
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

// PlaceComm is implemented by communicators whose sender can reach the
// memory a receiver's posted operation names (Placer): both ranks live in
// this process. A placement runs either way. A data frame's sender
// Reserves, fills Dst and Delivers: the payload is written straight into
// the receiver's posted receive, no closure, no frame-sized buffer. A
// pull's sender Reserves, copies what it asked for out of Dst and
// Releases: the answer is read straight out of the receiver's posted
// send, and neither the pull nor its reply is ever framed. Either way
// each byte is copied once, by the rank that holds the plan.
type PlaceComm interface {
	Comm
	// Reserve offers the posted operations of rank `to` the frame whose
	// payload is hdr followed by n more bytes. A Reservation with a nil
	// Dst means no place was named: send the frame as usual. Otherwise
	// Dst is exactly n bytes of the receiver's memory, and the caller
	// must end the placement, by Deliver or Release; until then the
	// receiver's owner waits before it takes the memory back.
	Reserve(to, tag int, hdr []byte, n int) Reservation
	// Deliver ends a placement Reserve granted, after the caller filled
	// Dst, and sends its frame as hdr alone, with Message.Placed saying
	// that len(Dst) bytes went to their place. hdr must be a whole pooled
	// buffer (SendOwned's rule); it belongs to the receiver afterwards.
	Deliver(r Reservation, hdr []byte)
	// Release ends a placement Reserve granted and sends nothing: the
	// caller read Dst, which answered the frame it offered in full.
	Release(r Reservation)
}

// Reservation is a placement Reserve granted, or, with a nil Dst, one it
// did not.
type Reservation struct {
	Dst     []byte // where the payload goes, or where the answer to a pull lies
	p       Placer
	to, tag int
}

// PlaceRoute returns c's placing path, nil when it has none. It is the
// first PlaceComm down c's chain of observers (capable): only in-process
// World endpoints are one. Simulated and socket transports have none,
// and FaultComm (whose plan must see every byte a frame carries) and
// every other interposer hide their endpoint's.
func PlaceRoute(c Comm) PlaceComm {
	pc, _ := capable[PlaceComm](c)
	return pc
}

// Reserve implements PlaceComm: it offers the receiver's Placer what a
// dialed reader would — the head of the payload, here the sender's
// header, capped as the reader caps it — and holds the placement the
// Placer grants.
func (c *inprocComm) Reserve(to, tag int, hdr []byte, n int) Reservation {
	checkPeer(c, to)
	checkTag(tag)
	pp := c.world.place[to].Load()
	if pp == nil {
		return Reservation{}
	}
	h, dst := (*pp).Place(c.rank, tag, hdr[:min(len(hdr), placeHeadBytes)], len(hdr)+n)
	if dst == nil {
		return Reservation{}
	}
	if h != len(hdr) || len(dst) != n {
		(*pp).Placed(tag)
		panic("mpi: a placement that does not fit its frame")
	}
	return Reservation{Dst: dst, p: *pp, to: to, tag: tag}
}

// Deliver implements PlaceComm. The placement ends before the header is
// queued, as a dialed reader ends it before it queues the header: the
// frame that says the piece arrived is never received while its bytes
// may still change.
func (c *inprocComm) Deliver(r Reservation, hdr []byte) {
	c.Release(r)
	c.world.boxes[r.to].Put(Message{Source: c.rank, Tag: r.tag, Data: hdr, Placed: len(r.Dst)})
}

// Release implements PlaceComm.
func (c *inprocComm) Release(r Reservation) { r.p.Placed(r.tag) }

// post puts p in the rank's place slot (PostReceives).
func (c *inprocComm) post(p Placer) { c.world.place[c.rank].Store(&p) }
