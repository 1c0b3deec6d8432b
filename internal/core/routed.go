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
// protocol still calls Recv/RecvTimeout on "the network". It is an
// observer: every fast path of the transport is found through Unwrap.
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

// Unwrap is the transport under the view: the capability probes
// (mpi.FileRoute, PlaceRoute, PostReceives, SendSegments) find its fast
// paths there.
func (rc *routedComm) Unwrap() mpi.Comm { return rc.under }
