package mpi

import "panda/internal/clock"

// RebindComm returns a view of c usable from the activity driven by
// clk. A simulated endpoint charges its sends and sleeps to one process
// and parks that process to receive, so under a virtual clock the view
// is the same rank bound to clk's process: a helper activity (a
// scheduler executor, a router) can use the node's rank without
// tripping the one-process-per-endpoint rule. A wrapper that keeps
// per-activity state (FaultComm, or anything with the same Rebind
// method) makes its own view over the rebound endpoint it wraps.
// Real-time endpoints (inproc, tcp) are safe to share between
// goroutines on the send side and are returned unchanged.
func RebindComm(c Comm, clk clock.Clock) Comm {
	if w, ok := c.(interface{ Rebind(clock.Clock) Comm }); ok {
		return w.Rebind(clk)
	}
	v, virtual := clk.(*clock.Virtual)
	if sc, ok := c.(*simComm); ok && virtual {
		return sc.world.Bind(sc.rank, v.Proc())
	}
	return c
}
