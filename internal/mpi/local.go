package mpi

import (
	"errors"
	"os"
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
	hub *Hub
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

// SendFile implements FileComm: it is Hub.deliver for a file frame, hdr
// followed by n bytes of f from off. A dialed destination gets the
// headers in one writev and the range by sendfile
// (frameWriter.writeFile); a local one gets one ReadAt into a pooled
// frame, which its mailbox owns. It reports whether the range went by
// sendfile, and the file's error — the frame went out whole regardless.
// A frame for an absent or dead rank is dropped unread.
func (c *localComm) SendFile(to, tag int, hdr []byte, f *os.File, off int64, n int) (bool, error) {
	checkFrame(c, to, tag, len(hdr)+n)
	if c.linkErr() != nil {
		return false, nil
	}
	switch d := c.hub.dest(to); {
	case d.local != nil:
		frame, err := fileFrame(hdr, f, off, n)
		d.local.accept(c.rank, uint32(tag)+1, frame)
		return false, err
	case d.conn != nil:
		zc, fileErr, linkErr := c.hub.out[to].writeFile(d.conn, to, c.rank, uint32(tag)+1, hdr, f, off, n)
		if linkErr != nil {
			c.hub.apply(event{kind: evWriteFailed, rank: to, who: d}) // as deliver does
		}
		return zc, fileErr
	}
	return false, nil
}

func (c *localComm) Isend(to, tag int, data []byte) Request {
	c.Send(to, tag, data)
	return doneRequest{}
}

// detach is CloseComm for a local endpoint: the hub fails its receives,
// announces the rank dead and frees it, in that order, so no new holder
// can be taken for the one that died. A second detach finds the rank no
// longer this endpoint's and does nothing (step).
func (c *localComm) detach() {
	c.hub.apply(event{kind: evEnd, rank: c.rank, who: holder{local: c}})
}
