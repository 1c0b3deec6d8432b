package panda

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"panda/internal/core"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// Runtime I/O-node joining: the client half of the elastic server pool.
// JoinIONode asks a daemon for a vacant pool slot over the session
// control protocol, dials the daemon's rank mesh at that slot's server
// rank, and serves collectives as a full member — heartbeating to keep
// its lease — until the operator drains it out (pandastat drain-server)
// or it dies and the lease lapses. cmd/pandad -join wraps this in a
// process.

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
	ctrl net.Conn
	stop chan struct{}
	done chan error

	mu     sync.Mutex
	closed bool
}

// JoinIONode attaches a new I/O node to a running daemon: it reserves a
// pool slot, joins the rank mesh, announces itself to the master server
// (which admits it into a new membership epoch and rebalances committed
// arrays onto it), and serves until drained, killed, or lost.
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
	conn := ctl.conn
	ccfg := rep.coreConfig()

	var disk storage.Disk
	if cfg.Dir == "" {
		disk = storage.NewMemDisk()
	} else {
		disk, err = storage.NewOSDisk(cfg.Dir)
		if err != nil {
			conn.Close()
			return nil, err
		}
	}
	comm, err := mpi.DialComm(cfg.Addr, ccfg.ServerRank(rep.Slot), ccfg.WorldSize())
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("panda: join slot %d: %w", rep.Slot, err)
	}

	n := &IONode{
		slot: rep.Slot,
		comm: comm,
		ctrl: conn,
		stop: make(chan struct{}),
		done: make(chan error, 1),
	}
	logf("joined %s as I/O node slot %d (heartbeat %v, lease %v)",
		cfg.Addr, rep.Slot, time.Duration(rep.HeartbeatNs), time.Duration(rep.LeaseNs))
	go func() {
		err := core.RunJoinedServer(ccfg, comm, disk, rep.Slot, time.Duration(rep.HeartbeatNs), n.stop)
		logf("I/O node slot %d exited: %v", rep.Slot, err)
		n.teardown() // a daemon-side drain ends Serve; release our half too
		n.done <- err
	}()
	return n, nil
}

// Slot returns the pool slot this node occupies.
func (n *IONode) Slot() int { return n.slot }

// Wait blocks until the node's serve loop exits — after the daemon
// drains the slot (clean, nil) or the transport is lost (error).
func (n *IONode) Wait() error { return <-n.done }

// Close shuts the node down: heartbeats stop, the mesh connection
// closes, and the serve loop exits. After a daemon-side drain this is
// the clean second half of removal; without one it is indistinguishable
// from a crash — the daemon's lease expiry will declare the slot lost.
func (n *IONode) Close() error {
	n.teardown()
	return <-n.done
}

// Kill abruptly severs the node — no heartbeat stop handshake, no
// waiting — simulating a machine loss for failure-detection tests. The
// daemon notices via the lease.
func (n *IONode) Kill() { n.teardown() }

func (n *IONode) teardown() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	close(n.stop)
	mpi.CloseComm(n.comm) //nolint:errcheck
	n.ctrl.Close()
}
