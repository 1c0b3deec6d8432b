package core

import (
	"time"

	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/mpi"
)

// routedComm is the endpoint a scheduler executor sees. Sends go
// straight to the underlying transport (rebound to the executor's own
// clock); receives are fed from a per-op mailbox by the node's router,
// which owns the real receive path and sorts incoming frames by op.
// The scheduler's protocol code is thereby identical to the legacy
// single-op path — it still calls Recv/RecvTimeout on "the network".
type routedComm struct {
	under mpi.Comm
	box   mbox[mpi.Message]
	clk   clock.Clock
}

func (rc *routedComm) Rank() int { return rc.under.Rank() }
func (rc *routedComm) Size() int { return rc.under.Size() }

func (rc *routedComm) Send(to, tag int, data []byte)      { rc.under.Send(to, tag, data) }
func (rc *routedComm) SendOwned(to, tag int, data []byte) { rc.under.SendOwned(to, tag, data) }
func (rc *routedComm) Isend(to, tag int, data []byte) mpi.Request {
	return rc.under.Isend(to, tag, data)
}

// SendVec implements mpi.VectorComm with the same fallback as
// mpi.SendSegments, so gather-send call sites behave identically
// whether or not the op runs under a router.
func (rc *routedComm) SendVec(to, tag int, hdr, payload []byte) bool {
	if vc, ok := rc.under.(mpi.VectorComm); ok {
		return vc.SendVec(to, tag, hdr, payload)
	}
	frame := bufpool.GetRaw(len(hdr) + len(payload))
	copy(frame, hdr)
	copy(frame[len(hdr):], payload)
	rc.under.SendOwned(to, tag, frame)
	return false
}

func match(from, tag int) func(mpi.Message) bool {
	return func(m mpi.Message) bool { return mpi.Matches(m, from, tag) }
}

func (rc *routedComm) Recv(from, tag int) mpi.Message {
	m, _ := rc.box.pop(rc.clk, match(from, tag), 0) // unbounded: cannot time out
	return m
}

// RecvTimeout implements mpi.DeadlineComm.
func (rc *routedComm) RecvTimeout(from, tag int, timeout time.Duration) (mpi.Message, error) {
	m, err := rc.box.pop(rc.clk, match(from, tag), timeout)
	if err != nil {
		return mpi.Message{}, mpi.ErrTimeout
	}
	return m, nil
}

// PeerLost implements mpi.PeerChecker by delegation.
func (rc *routedComm) PeerLost(rank int) bool {
	if pc, ok := rc.under.(mpi.PeerChecker); ok {
		return pc.PeerLost(rank)
	}
	return false
}
