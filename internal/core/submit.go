package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/queue"
)

// The client's one collective path. Every collective — a blocking call
// is a submission awaited at once — runs on an executor of the client's
// pool (node.go), a Client copy executing the single-op protocol
// (collectiveSeq) against a routedComm. A per-client router owns the
// real receive and routes each tagToClient frame through the node's
// frame table by the sequence number carried in the tag: a frame for an
// op not retired here is the op's, stashed until the application
// submits it if a faster rank's op got here first. An executor outlives
// its operation, so a steady-state submission allocates only the handle
// the application is given.
//
// A failed link ends the router and fails the collectives waiting on it
// with ErrPeerLost; the next collective starts another router loop,
// which meets the failure again if it persists.

// OpHandle is an in-flight asynchronous collective.
type OpHandle struct {
	c       *Client
	seq     int
	ex      *executor[*collectiveOp] // running it, until Await
	elapsed time.Duration
}

// Seq is the operation's client-assigned sequence number — stable
// across the deployment, useful for correlating traces.
func (h *OpHandle) Seq() int { return h.seq }

// Await blocks until the operation completes and returns its error.
// Await must be called exactly once, from the application goroutine.
func (h *OpHandle) Await() error {
	var err error
	h.elapsed, err = h.c.finish(h.seq, h.ex)
	h.ex = nil
	return err
}

// Elapsed is the operation's client-perceived latency — submission to
// completion, queue wait included. Valid after Await returns.
func (h *OpHandle) Elapsed() time.Duration { return h.elapsed }

// SubmitWrite starts an asynchronous collective write attributed to
// tenant (the scheduler's fairness unit; "" means the default tenant).
// Like the blocking API it must be called in the same order with the
// same arguments on every rank.
func (c *Client) SubmitWrite(tenant, suffix string, specs []ArraySpec, bufs [][]byte) (*OpHandle, error) {
	return c.submit(opWrite, suffix, specs, bufs, tenant)
}

// SubmitRead starts an asynchronous collective read attributed to
// tenant.
func (c *Client) SubmitRead(tenant, suffix string, specs []ArraySpec, bufs [][]byte) (*OpHandle, error) {
	return c.submit(opRead, suffix, specs, bufs, tenant)
}

func (c *Client) submit(op byte, suffix string, specs []ArraySpec, bufs [][]byte, tenant string) (*OpHandle, error) {
	seq, e, err := c.start(op, suffix, specs, bufs, tenant)
	if err != nil {
		return nil, err
	}
	return &OpHandle{c: c, seq: seq, ex: e}, nil
}

// start admits one collective and hands it to an executor; finish waits
// for it. Both run on the application goroutine, which owns opSeq,
// running, lanes and the pool.
func (c *Client) start(op byte, suffix string, specs []ArraySpec, bufs [][]byte, tenant string) (int, *executor[*collectiveOp], error) {
	if tenant == "" {
		tenant = c.tenant
	}
	o, err := c.admit(op, suffix, specs, bufs, tenant)
	if err != nil {
		return 0, nil, err
	}
	r := c.routeFrames()
	e := r.pool.take()
	if c.running == nil {
		c.running = make(map[int]*executor[*collectiveOp])
	}
	c.running[o.seq] = e
	r.frames.bind(o.seq, e.box)
	if r.posted != nil {
		r.posted.post(o)
	}
	o.lane, o.tr = c.lanes.take(c.cfg.Trace, "client", c.comm.Rank())
	e.jobs.Put(o)
	return o.seq, e, nil
}

func (c *Client) finish(seq int, e *executor[*collectiveOp]) (time.Duration, error) {
	o, perr := e.done.Pop(c.clk, nil, nil, 0)
	if perr != nil {
		return 0, fmt.Errorf("core: operation %d abandoned: %w", seq, perr)
	}
	delete(c.running, seq)
	c.lanes.free(o.lane)
	c.router.pool.give(e)
	return o.elapsed, o.err
}

// execute is the body of every executor of the client's pool. The
// executor runs as this client — its node, chunk index and elapsed-time
// cell, none of which change once collectives run — on the activity's
// own clock and a routedComm over its mailbox.
func (c *Client) execute(clk clock.Clock, e *executor[*collectiveOp]) {
	under := mpi.RebindComm(c.comm, clk)
	ex := Client{node: c.node, elapsedNs: c.elapsedNs, memIndex: c.memIndex}
	ex.comm, ex.clk = newRoutedComm(under, e.box, clk), clk
	for {
		o, _ := e.jobs.Pop(clk, nil, nil, 0) // unbounded: cannot time out
		if o == nil {
			return
		}
		ex.tr = o.tr
		t0 := clk.Now()
		o.err = ex.collectiveSeq(o)
		if o.posted != nil {
			o.posted.unpost(o) // before the array goes back to the application
		}
		// Retire before completing: late frames for this op must be
		// rejected, not stashed forever.
		under.SendOwned(c.comm.Rank(), tagSchedDone, encodeSchedDone(uint32(o.seq), false))
		o.elapsed = clk.Now() - t0
		e.done.Put(o)
	}
}

// drainHandles awaits every collective the application abandoned, so
// the shutdown handshake never races an op still on the wire.
func (c *Client) drainHandles() {
	for seq, e := range c.running {
		c.finish(seq, e) //nolint:errcheck // abandoned: nobody is left to tell
	}
}

// clientRouter owns the client's receive and fans frames out to per-op
// mailboxes through the node's frame table; the pool's executors outlive
// a router loop that a link failure ended.
type clientRouter struct {
	c      *Client
	frames *opFrames
	posted *postedOps // nil unless the endpoint can place a payload (mpi.PostReceives)
	pool   execPool[*collectiveOp]

	appDone *queue.Q[mpi.Message] // master: peers' end-of-app notices
	exited  *queue.Q[struct{}]
	lost    atomic.Bool // the loop ended on a link failure
}

// routeFrames makes sure a router loop is receiving for this client: the
// first collective starts one, and so does the first after a link
// failure ended the last. Application goroutine only.
func (c *Client) routeFrames() *clientRouter {
	r := c.router
	switch {
	case r == nil:
		r = &clientRouter{
			c:       c,
			frames:  newOpFrames(),
			pool:    execPool[*collectiveOp]{clk: c.clk, name: fmt.Sprintf("client%d", c.Rank()), body: c.execute},
			appDone: queue.New[mpi.Message](c.clk),
			exited:  queue.New[struct{}](c.clk),
		}
		p := &postedOps{comm: c.comm, wait: c.cfg.OpTimeout, lends: mpi.PlaceRoute(c.comm) != nil}
		if mpi.PostReceives(c.comm, p) {
			r.posted = p
		}
		c.router = r
	case r.lost.Load():
		r.exited.Pop(c.clk, nil, nil, 0) //nolint:errcheck // unbounded: cannot time out
		r.lost.Store(false)
	default:
		return r
	}
	c.clk.Go(fmt.Sprintf("client%d-router", c.Rank()), func(clk clock.Clock) {
		r.run(asEndpoint(mpi.RebindComm(c.comm, clk)))
		r.exited.Put(struct{}{})
	})
	return r
}

// stopRouter tells the router to exit via a loopback frame and joins
// it, returning receive ownership of the communicator to the caller,
// and ends the executors' activities.
func (c *Client) stopRouter() {
	if c.router == nil {
		return // no collective ever ran here
	}
	if !c.router.lost.Load() {
		c.comm.Send(c.comm.Rank(), tagRouterStop, nil)
	}
	c.router.exited.Pop(c.clk, nil, nil, 0) //nolint:errcheck // unbounded: cannot time out
	c.router.pool.stop()
	c.router = nil
}

// fail ends the loop on a link failure: every collective waiting on a
// mailbox, and the end-of-application collection, is woken to find it.
func (r *clientRouter) fail() {
	r.lost.Store(true)
	r.frames.wake()
	r.appDone.Wake()
}

func (r *clientRouter) run(comm endpoint) {
	for {
		m, err := comm.RecvTimeout(mpi.AnySource, mpi.AnyTag, 0) // a link failure comes back, not as a panic
		if err != nil {
			r.fail()
			return
		}
		switch m.Tag {
		case tagRouterStop:
			return
		case tagSchedDone:
			rb := rbuf{b: m.Data}
			if rb.u8() == msgSchedDone {
				if seq, _, err := decodeSchedDone(&rb); err == nil {
					r.frames.retire(int(seq), 0)
				}
			}
			bufpool.Put(m.Data)
		case tagAppDone:
			r.appDone.Put(m)
		default:
			// Any op not retired here is coming: a faster rank's op can
			// reach our servers — and their replies us — before our
			// application submits it.
			seq, family, ok := tagOpSeq(m.Tag)
			if ok = ok && family == 1; ok {
				_, retired := r.frames.retired(seq)
				ok = r.frames.deliver(seq, m, !retired)
			}
			if !ok {
				r.c.reject(m.Data)
			}
		}
	}
}

// collectAppDone is the master's end-of-application collection: peers'
// tagAppDone frames arrive through the router. Bounded per peer when
// OpTimeout is set, and cut short when the link fails.
func (c *Client) collectAppDone() {
	r := c.routeFrames()
	linkDown := func() error {
		if r.lost.Load() {
			return ErrPeerLost
		}
		return nil
	}
	for i := 1; i < c.cfg.NumClients; i++ {
		if _, err := r.appDone.Pop(c.clk, nil, linkDown, c.cfg.OpTimeout); err != nil {
			break // a peer is gone or late; shut down anyway
		}
	}
}
