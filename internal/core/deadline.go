package core

import (
	"errors"
	"fmt"
	"time"

	"panda/internal/clock"
	"panda/internal/mpi"
)

// endpoint is the receive contract core holds a transport to: receives
// that can be bounded and that report a dead link instead of panicking
// (mpi.DeadlineComm), and a transport's word on whether a peer is gone
// (mpi.PeerChecker). Every mpi transport, FaultComm and routedComm meet
// it; a node converts what it is handed once (asEndpoint).
type endpoint interface {
	mpi.DeadlineComm
	mpi.PeerChecker
}

// asEndpoint holds comm to the receive contract; a transport that does
// not meet it is a programming error.
func asEndpoint(comm mpi.Comm) endpoint {
	e, ok := comm.(endpoint)
	if !ok {
		panic(fmt.Sprintf("core: endpoint %T lacks RecvTimeout or PeerLost", comm))
	}
	return e
}

// recvBounded is Recv bounded by an absolute deadline on clk (0 = no
// deadline: wait as long as the original protocol did, and read no
// clock). Transport-level failures are translated to this package's
// typed sentinels: mpi.ErrTimeout → ErrTimeout, mpi.ErrPeerLost →
// ErrPeerLost — with or without a deadline, so a dead link fails the
// wait instead of panicking.
func recvBounded(comm endpoint, clk clock.Clock, from, tag int, deadline time.Duration) (mpi.Message, error) {
	var remaining time.Duration // 0: unbounded
	if deadline > 0 {
		if remaining = deadline - clk.Now(); remaining <= 0 {
			return mpi.Message{}, ErrTimeout
		}
	}
	m, err := comm.RecvTimeout(from, tag, remaining)
	if err != nil {
		return mpi.Message{}, mapTransportErr(err)
	}
	return m, nil
}

// mapTransportErr converts mpi-layer failures into core's typed errors.
func mapTransportErr(err error) error {
	switch {
	case errors.Is(err, mpi.ErrTimeout):
		return ErrTimeout
	case errors.Is(err, mpi.ErrPeerLost):
		return fmt.Errorf("%v: %w", err, ErrPeerLost)
	default:
		return err
	}
}

// opDeadline computes the absolute deadline for an operation entered
// now, or 0 when deadlines are disabled.
func opDeadline(cfg Config, clk clock.Clock) time.Duration {
	if cfg.OpTimeout <= 0 {
		return 0
	}
	return clk.Now() + cfg.OpTimeout
}

// clientOpDeadline is the client-side patience for one collective:
// twice the operation budget. The master server may legitimately need
// up to 1.5x OpTimeout before its Complete goes out (its own budget
// plus half a budget of Done-collection slack), and giving clients
// strictly more than that keeps a backlogged deployment self-healing:
// a failed operation costs a client 2x OpTimeout but adds at most
// 1.5x OpTimeout of work to a server, so server lag shrinks across
// consecutive failures instead of compounding until nothing completes.
func clientOpDeadline(cfg Config, clk clock.Clock) time.Duration {
	if cfg.OpTimeout <= 0 {
		return 0
	}
	return clk.Now() + 2*cfg.OpTimeout
}
