package core

import (
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/queue"
)

// routedComm is the endpoint an operation executor sees. Sends go
// straight to the underlying transport (rebound to the executor's own
// clock); the receive half is the one every Comm has (mpi.Endpoint),
// over a per-op queue fed by the node's router, so the single-op
// protocol still calls Recv/RecvTimeout on "the network".
type routedComm struct {
	mpi.Endpoint
	under mpi.Comm
}

// newRoutedComm views under, already rebound to clk, through box.
func newRoutedComm(under mpi.Comm, box *queue.Q[mpi.Message], clk clock.Clock) *routedComm {
	return &routedComm{Endpoint: mpi.NewEndpoint(under, box, clk), under: under}
}

func (rc *routedComm) Send(to, tag int, data []byte)      { rc.under.Send(to, tag, data) }
func (rc *routedComm) SendOwned(to, tag int, data []byte) { rc.under.SendOwned(to, tag, data) }
func (rc *routedComm) Isend(to, tag int, data []byte) mpi.Request {
	return rc.under.Isend(to, tag, data)
}

// SendVec implements mpi.VectorComm, so gather-send call sites behave
// identically whether or not the op runs under a router.
func (rc *routedComm) SendVec(to, tag int, hdr, payload []byte) bool {
	return mpi.SendSegments(rc.under, to, tag, hdr, payload)
}

// FileRoute offers the transport's file-range path (mpi.FileRoute), nil
// when the transport has none: a file frame goes straight to under, as
// every send does.
func (rc *routedComm) FileRoute() mpi.FileComm { return mpi.FileRoute(rc.under) }

// PlaceRoute offers the transport's placing path (mpi.PlaceRoute), nil
// when the transport has none: a placed frame is delivered by under, as
// every send is.
func (rc *routedComm) PlaceRoute() mpi.PlaceComm { return mpi.PlaceRoute(rc.under) }
