package mpi

import (
	"errors"
	"os"
	"sync"
)

// errDetached is the link error of a local endpoint that was closed, or
// whose hub was.
var errDetached = errors.New("detached from hub")

// localComm is a rank attached to a Hub from inside the hub's own
// process (Hub.Local). It receives as every hub endpoint does and sends
// through Hub.deliver; tcp.go's header comment describes the data path
// and why the unbounded mailbox needs no flow control.
type localComm struct {
	Endpoint
	hub    *Hub
	closed sync.Once
}

// emit sends a|b to rank `to`. A detached endpoint (or one whose hub has
// closed) drops the frame, as a dialed endpoint's closed socket does: it
// must not speak for a rank that may since have been re-issued.
func (c *localComm) emit(to, tag int, a, b []byte, owned bool) fate {
	checkFrame(c, to, tag, len(a)+len(b))
	if c.linkErr() != nil {
		return dropped
	}
	return c.hub.deliver(c.rank, to, uint32(tag)+1, a, b, owned)
}

func (c *localComm) Send(to, tag int, data []byte) { c.emit(to, tag, data, nil, false) }

// SendOwned hands data itself to a local destination's mailbox.
func (c *localComm) SendOwned(to, tag int, data []byte) { c.emit(to, tag, data, nil, true) }

// SendVec implements VectorComm: one writev onto a dialed destination's
// socket, completed before SendVec returns; a local destination's
// mailbox gets a pooled copy, never a view of the borrowed payload.
func (c *localComm) SendVec(to, tag int, hdr, payload []byte) bool {
	return c.emit(to, tag, hdr, payload, false) == written
}

// SendFile implements FileComm through Hub.deliverFile: sendfile onto a
// dialed destination's socket, one pooled copy into a local mailbox.
func (c *localComm) SendFile(to, tag int, hdr []byte, f *os.File, off int64, n int) (bool, error) {
	checkFrame(c, to, tag, len(hdr)+n)
	if c.linkErr() != nil {
		return false, nil
	}
	return c.hub.deliverFile(c.rank, to, uint32(tag)+1, hdr, f, off, n)
}

func (c *localComm) Isend(to, tag int, data []byte) Request {
	c.Send(to, tag, data)
	return doneRequest{}
}

// detach is CloseComm for a local endpoint: its receives fail, the hub
// announces the rank dead, and the rank is freed for re-registration —
// in that order, so no new holder can be taken for the one that died.
func (c *localComm) detach() {
	c.closed.Do(func() {
		c.failReads(errDetached)
		c.hub.announceDeath(c.rank)
		c.hub.mu.Lock()
		delete(c.hub.locals, c.rank)
		c.hub.mu.Unlock()
	})
}
