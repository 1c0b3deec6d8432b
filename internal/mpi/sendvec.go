package mpi

import "panda/internal/bufpool"

// sendvec.go: scatter-gather sends. Panda's data frames are a small
// protocol header followed by a large payload that already exists
// somewhere — a client's application array, a server's staging buffer.
// Flattening the two into one frame costs a payload-sized copy per
// message; transports that can ship segments directly (writev on TCP)
// skip it.

// VectorComm is implemented by communicators with a scatter-gather send
// path. SendVec delivers the concatenation hdr|payload to rank `to` as
// one ordinary message: receivers see a single contiguous Data slice
// and cannot tell which send path produced it.
//
// Both segments are only read before SendVec returns — the caller
// retains ownership and may reuse or mutate them afterwards. That
// contract is what lets hot paths pass views of live buffers as the
// payload without aliasing the transport's internals.
type VectorComm interface {
	Comm
	// SendVec sends hdr|payload and reports whether the segments were
	// shipped without an intermediate payload-sized concatenation (true
	// on writev-style transports; false where delivery semantics force
	// a copy anyway).
	SendVec(to, tag int, hdr, payload []byte) bool
}

// SendSegments delivers hdr|payload as one message through the first
// scatter-gather path down c's chain of observers (capable), otherwise
// by concatenating into a pooled frame. It reports whether the payload
// copy was avoided.
func SendSegments(c Comm, to, tag int, hdr, payload []byte) bool {
	if vc, ok := capable[VectorComm](c); ok {
		return vc.SendVec(to, tag, hdr, payload)
	}
	frame := bufpool.GetRaw(len(hdr) + len(payload))
	copy(frame, hdr)
	copy(frame[len(hdr):], payload)
	c.SendOwned(to, tag, frame)
	return false
}
