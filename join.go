package panda

import (
	"fmt"
	"os"
	"sync"
	"time"

	"panda/internal/clock"
	"panda/internal/core"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// Runtime I/O-node joining: the client half of the elastic server pool.
// JoinIONode asks a daemon for a vacant pool slot over the session
// control protocol, dials the daemon's rank mesh at that slot's server
// rank, says server-ready on the same control connection, and serves
// collectives as a full member until the operator drains it out
// (pandastat drain-server) or it dies. The control connection carries
// the node's whole membership: ready, then a heartbeat every
// HeartbeatEvery to renew its lease, and its end tells the daemon the
// node is gone — at once, with no lease to wait out. The lease lapses
// only for a node that keeps its connections open and goes silent.
// cmd/pandad -join wraps this in a process.

// IONodeConfig configures a joining I/O node.
type IONodeConfig struct {
	// Addr is the daemon's address.
	Addr string
	// Dir stores the node's files; "" keeps them in memory (gone with
	// the node — fine for scratch capacity, not for durability).
	Dir string
	// Name is the node's self-description shown in the membership table
	// ("" = "host:dir" best effort).
	Name string
	// Logf, when non-nil, receives one line per notable event.
	Logf func(format string, args ...any)
}

// IONode is a live joined I/O node.
type IONode struct {
	slot int
	comm mpi.Comm
	ctl  *ctlConn
	stop chan struct{}
	done chan error
	once sync.Once // teardown
}

// JoinIONode attaches a new I/O node to a running daemon: it reserves a
// pool slot, joins the rank mesh, tells the daemon it is ready (which
// admits it into a new membership epoch and rebalances committed arrays
// onto it), and serves until drained, killed, or lost.
// A daemon whose pool is at capacity refuses with ErrBusy.
func JoinIONode(cfg IONodeConfig) (*IONode, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		cfg.Name = host + ":" + cfg.Dir
	}

	ctl, rep, err := dialControl(cfg.Addr, 0, ctlRequest{Cmd: "server-join", Addr: cfg.Name})
	if err != nil {
		return nil, err
	}
	ccfg := rep.coreConfig()

	var disk storage.Disk
	if cfg.Dir == "" {
		disk = storage.NewMemDisk()
	} else {
		disk, err = storage.NewOSDisk(cfg.Dir)
		if err != nil {
			ctl.conn.Close()
			return nil, err
		}
	}
	comm, err := mpi.DialComm(cfg.Addr, ccfg.ServerRank(rep.Slot), ccfg.WorldSize())
	if err != nil {
		ctl.conn.Close()
		return nil, fmt.Errorf("panda: join slot %d: %w", rep.Slot, err)
	}
	// Ready only now: the rank is registered on the hub, so the master
	// can reach the node from the moment the slot turns Active.
	if _, err := ctl.call(ctlRequest{Cmd: "server-ready"}); err != nil {
		mpi.CloseComm(comm) //nolint:errcheck
		ctl.conn.Close()
		return nil, fmt.Errorf("panda: join slot %d: %w", rep.Slot, err)
	}

	n := &IONode{
		slot: rep.Slot,
		comm: comm,
		ctl:  ctl,
		stop: make(chan struct{}),
		done: make(chan error, 1),
	}
	logf("joined %s as I/O node slot %d (heartbeat %v, lease %v)",
		cfg.Addr, rep.Slot, time.Duration(rep.HeartbeatNs), time.Duration(rep.LeaseNs))
	go func() {
		beating := make(chan struct{})
		go func() { n.heartbeat(time.Duration(rep.HeartbeatNs)); close(beating) }()
		// ccfg.Members stays nil on the joiner's side: membership is the
		// daemon's, and a nil table makes this server plan purely from
		// the Deads lists stamped on incoming requests.
		err := core.NewServer(ccfg, comm, disk, clock.NewReal()).Serve()
		logf("I/O node slot %d exited: %v", rep.Slot, err)
		n.teardown() // a daemon-side drain ends Serve; release our half too
		<-beating
		n.done <- err
	}()
	return n, nil
}

// heartbeat renews the node's lease on its control connection every
// `every` until the node is torn down (teardown closes both n.stop and
// the connection a beat may be blocked on). A refused beat (the slot was
// declared lost, or is no longer this node's) or a broken connection
// ends the beating: the daemon has already planned around the node.
func (n *IONode) heartbeat(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		if _, err := n.ctl.call(ctlRequest{Cmd: "heartbeat"}); err != nil {
			return
		}
	}
}

// Slot returns the pool slot this node occupies.
func (n *IONode) Slot() int { return n.slot }

// Wait blocks until the node's serve loop exits — after the daemon
// drains the slot (clean, nil) or the transport is lost (error).
func (n *IONode) Wait() error { return <-n.done }

// Close shuts the node down: heartbeats stop, the mesh and control
// connections close, and the serve loop exits. After a daemon-side
// drain this is the clean second half of removal (the drain already
// released the slot); without one it is a loss — the daemon declares
// the slot lost as soon as the control connection ends.
func (n *IONode) Close() error {
	n.teardown()
	return <-n.done
}

// Kill abruptly severs the node — no drain, no waiting — simulating a
// machine loss for failure-detection tests. The daemon sees the control
// connection end and declares the slot lost at once.
func (n *IONode) Kill() { n.teardown() }

func (n *IONode) teardown() {
	n.once.Do(func() {
		close(n.stop)
		mpi.CloseComm(n.comm) //nolint:errcheck
		n.ctl.conn.Close()
	})
}
