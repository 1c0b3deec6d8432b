package core

import (
	"fmt"
	"time"

	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// RunJoinedServer runs an I/O node that joined a resident service at
// runtime. The caller has already reserved a pool slot over the control
// plane (the daemon's "server-join" command) and dialed comm at
// cfg.ServerRank(slot); this function announces the node to the master
// server with a ServerHello — which flips the slot Joining → Active and
// lets the scheduler dispatch to it — then serves collectives exactly
// like a launch-time server, renewing its lease with heartbeat frames
// every `every` until stop closes or the master tells it to exit.
//
// cfg is the shape the daemon advertised (capacity NumServers, shared
// tuning); cfg.Members stays nil on the joiner's side — membership is
// the master's concern, and a nil table makes this server plan purely
// from the Deads lists stamped on incoming requests.
func RunJoinedServer(cfg Config, comm mpi.Comm, disk storage.Disk, slot int, every time.Duration, stop <-chan struct{}) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if comm.Rank() != cfg.ServerRank(slot) {
		return fmt.Errorf("core: joined server at rank %d, want %d for slot %d", comm.Rank(), cfg.ServerRank(slot), slot)
	}
	if every <= 0 {
		every = DefaultLeaseTTL / 4
	}
	master := cfg.MasterServer()
	// Sends on a torn-down transport are dropped by the comm layer; for
	// a joined server that just means the node is gone — exactly the
	// condition the master's lease expiry handles.
	comm.Send(master, tagControl, encodeServerHello(slot))

	done := make(chan struct{})
	go func() {
		// Joiners are always real processes, so the heartbeat cadence can
		// use wall time directly; the master measures the lease against
		// its own deployment clock.
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-done:
				return
			case <-t.C:
				comm.Send(master, tagControl, encodeHeartbeat(slot))
			}
		}
	}()
	defer close(done)
	return NewServer(cfg, comm, disk, clock.NewReal()).Serve()
}
