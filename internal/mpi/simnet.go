package mpi

import (
	"time"

	"panda/internal/clock"
	"panda/internal/queue"
	"panda/internal/vtime"
)

// LinkConfig describes the interconnect cost model for a SimWorld.
// Defaults (SP2Link) reproduce the NAS IBM SP2 figures from Table 1 of
// the paper: 43 µs one-way message latency and 34 MB/s sustained MPI
// bandwidth per node port, full-duplex.
type LinkConfig struct {
	// Latency is the one-way zero-byte message latency.
	Latency time.Duration
	// Bandwidth is the sustained point-to-point bandwidth in bytes
	// per second; it also caps each node's aggregate ingress and
	// egress (one serial port per direction).
	Bandwidth float64
}

// SP2Link is the interconnect of the NAS IBM SP2 as measured in the
// paper's Table 1.
func SP2Link() LinkConfig {
	return LinkConfig{Latency: 43 * time.Microsecond, Bandwidth: 34e6}
}

// txTime is the wire occupancy of a message of n bytes.
func (cfg LinkConfig) txTime(n int) time.Duration {
	if cfg.Bandwidth <= 0 {
		panic("mpi: non-positive bandwidth")
	}
	return txDur(n, cfg.Bandwidth)
}

// txDur is the occupancy of n bytes on a link of bw bytes/second.
func txDur(n int, bw float64) time.Duration {
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// SimWorld is a communicator whose ranks are vtime processes and whose
// messages are charged the LinkConfig costs. Each node has one egress
// and one ingress port; concurrent transfers through a port serialize,
// which is what makes a single I/O node's ingress the bottleneck when
// many compute nodes send to it at once.
//
// A message's delivery time is computed with cut-through semantics:
// uncontended, a message of n bytes sent at t arrives at
// t + Latency + n/Bandwidth.
type SimWorld struct {
	sim   *vtime.Sim
	cfg   LinkConfig
	nodes []*simNode
	bytes int64

	// Topology extensions (SetTopology). With topo nil the charge model
	// above is used unchanged; with a topology, in-rack messages use the
	// resolved local link plus a per-message SendOverhead on the egress,
	// and cross-rack messages additionally serialize through the source
	// rack's uplink and the destination rack's downlink.
	topo  *Topology
	local LinkConfig
	racks []*rackPorts
}

// rackPorts is one rack's pair of spine ports: every message leaving
// the rack books up, every message entering books down, so an
// oversubscribed uplink is a genuine shared bottleneck.
type rackPorts struct {
	up, down vtime.Port
}

type simNode struct {
	in, out vtime.Port
	box     *queue.Q[Message]
}

// NewSimWorld creates a simulated communicator of the given size on sim.
func NewSimWorld(sim *vtime.Sim, size int, cfg LinkConfig) *SimWorld {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	w := &SimWorld{sim: sim, cfg: cfg, nodes: make([]*simNode, size)}
	for i := range w.nodes {
		w.nodes[i] = &simNode{box: queue.NewSim[Message](sim)}
	}
	return w
}

// Bind returns the endpoint for rank driven by the vtime process p:
// sends and sleeps are charged to p, and a receive parks it on the
// rank's queue. It must be used from inside p (the process spawned for
// this rank, or a helper activity of its node — see RebindComm).
func (w *SimWorld) Bind(rank int, p *vtime.Proc) Comm {
	if rank < 0 || rank >= len(w.nodes) {
		panic("mpi: rank out of range")
	}
	return &simComm{
		Endpoint: Endpoint{rank: rank, size: len(w.nodes), box: w.nodes[rank].box, clk: clock.NewVirtual(p)},
		world:    w, proc: p,
	}
}

// BytesMoved reports the total payload bytes delivered so far, for
// utilization accounting.
func (w *SimWorld) BytesMoved() int64 { return w.bytes }

// SetTopology installs a two-level topology charge model. It must be
// called before any traffic flows (rack ports start empty). A nil
// topology restores the uniform model.
func (w *SimWorld) SetTopology(t *Topology) {
	if t == nil {
		w.topo, w.racks = nil, nil
		return
	}
	if err := t.Validate(); err != nil {
		panic(err)
	}
	w.topo = t
	w.local = t.local(w.cfg)
	w.racks = make([]*rackPorts, t.Racks(len(w.nodes)))
	for i := range w.racks {
		w.racks[i] = &rackPorts{}
	}
}

// Topology returns the installed topology, nil when flat.
func (w *SimWorld) Topology() *Topology { return w.topo }

// simComm receives as every endpoint does (endpoint.go): the bound is
// charged on the simulation clock, so a timeout advances the rank to
// exactly now+timeout. Simulated ranks cannot die: Recv never panics,
// RecvTimeout fails only with ErrTimeout and PeerLost is always false.
type simComm struct {
	Endpoint
	world *SimWorld
	proc  *vtime.Proc
}

// transmit books the ports, schedules delivery, and returns the time at
// which the sender's buffer is free (egress transmission complete).
func (c *simComm) transmit(to, tag int, data []byte) time.Duration {
	checkPeer(c, to)
	checkTag(tag)
	w := c.world
	now := c.proc.Now()
	src := w.nodes[c.rank]
	dst := w.nodes[to]

	var outDone, inDone time.Duration
	if w.topo == nil {
		tx := w.cfg.txTime(len(data))
		outDone = src.out.Reserve(now, tx)
		// Cut-through: the head of the message reaches the destination
		// Latency after transmission starts, so ingress occupancy may
		// begin at outDone - tx + Latency and lasts tx.
		inDone = dst.in.Reserve(outDone-tx+w.cfg.Latency, tx)
	} else {
		outDone, inDone = c.transmitTopo(now, to, len(data))
	}

	m := Message{Source: c.rank, Tag: tag, Data: data}
	w.sim.At(inDone, func() {
		dst.box.Put(m)
		w.bytes += int64(len(m.Data))
	})
	return outDone
}

// transmitTopo books the topology-aware path for a message of n bytes
// and returns (egress free, delivery) times. The sender's NIC is held
// for SendOverhead plus the local wire occupancy; cut-through then
// chains the first-bit arrival hop by hop: in-rack stays on the local
// link, cross-rack flows local wire -> source rack uplink -> spine
// (CrossLatency) -> destination rack downlink -> local wire.
func (c *simComm) transmitTopo(now time.Duration, to, n int) (outDone, inDone time.Duration) {
	w := c.world
	t := w.topo
	lcfg := w.local
	txL := lcfg.txTime(n)
	src, dst := w.nodes[c.rank], w.nodes[to]

	outDone = src.out.Reserve(now, t.SendOverhead+txL)
	if !t.CrossRack(c.rank, to) {
		inDone = dst.in.Reserve(outDone-txL+lcfg.Latency, txL)
		return outDone, inDone
	}
	txU := txDur(n, t.UplinkBandwidth(w.cfg))
	upDone := w.racks[t.RackOf(c.rank)].up.Reserve(outDone-txL+lcfg.Latency, txU)
	downDone := w.racks[t.RackOf(to)].down.Reserve(upDone-txU+t.CrossLatency, txU)
	inDone = dst.in.Reserve(downDone-txU+lcfg.Latency, txL)
	// A fast final hop cannot finish before the slower downlink has
	// delivered the last bit to the rack.
	if last := downDone + lcfg.Latency; last > inDone {
		inDone = last
	}
	return outDone, inDone
}

func (c *simComm) Send(to, tag int, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	c.SendOwned(to, tag, cp)
}

// SendOwned charges the wire for all of data. A simulated rank has no
// scatter-gather path: SendSegments flattens hdr|payload into one pooled
// frame and sends it here, so a vector send costs what a flattened one
// does and virtual-time results cannot depend on which was taken.
func (c *simComm) SendOwned(to, tag int, data []byte) {
	done := c.transmit(to, tag, data)
	c.proc.SleepUntil(done)
}

type simRequest struct {
	proc *vtime.Proc
	done time.Duration
}

func (r *simRequest) Wait() {
	if r.proc.Now() < r.done {
		r.proc.SleepUntil(r.done)
	}
}

func (c *simComm) Isend(to, tag int, data []byte) Request {
	cp := make([]byte, len(data))
	copy(cp, data)
	done := c.transmit(to, tag, cp)
	return &simRequest{proc: c.proc, done: done}
}
