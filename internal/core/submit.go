package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/queue"
)

// The client's one collective path. Every collective — a blocking call
// is a submission awaited at once — runs on its own concurrent activity,
// a shallow Client copy executing the single-op protocol (collectiveSeq)
// against a routedComm. A per-client router owns the real receive and
// routes each tagToClient frame to the op it belongs to by the sequence
// number carried in the tag, mirroring the server router in sched.go.
// As there, an executor outlives its operation, so a steady-state
// submission allocates only the handle the application is given.
//
// A failed link ends the router and fails the collectives waiting on it
// with ErrPeerLost; the next collective starts another router, which
// meets the failure again if it persists.

// OpHandle is an in-flight asynchronous collective.
type OpHandle struct {
	c       *Client
	seq     int
	ex      *clientExecutor // running it, until Await
	elapsed time.Duration
}

// clientExecutor is one of a client's operation executors: the activity
// a submitted collective runs on, with what it needs that outlives the
// collective — the Client it runs as, the queue submissions arrive on,
// the mailbox the router fills and the one the result comes back on.
type clientExecutor struct {
	cl   Client
	jobs *queue.Q[*collectiveOp] // nil stops the activity
	box  *queue.Q[mpi.Message]
	res  *queue.Q[opResult]
	seq  int // of the collective in hand
	lane int // the trace lane it records on, held from start to finish
}

type opResult struct {
	err     error
	elapsed time.Duration
}

// Seq is the operation's client-assigned sequence number — stable
// across the deployment, useful for correlating traces.
func (h *OpHandle) Seq() int { return h.seq }

// Await blocks until the operation completes and returns its error.
// Await must be called exactly once, from the application goroutine.
func (h *OpHandle) Await() error {
	var err error
	h.elapsed, err = h.c.finish(h.ex)
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
	e, err := c.start(op, suffix, specs, bufs, tenant)
	if err != nil {
		return nil, err
	}
	return &OpHandle{c: c, seq: e.seq, ex: e}, nil
}

// start admits one collective and hands it to an executor; finish waits
// for it. Both run on the application goroutine, which owns opSeq,
// running, idle and lanes.
func (c *Client) start(op byte, suffix string, specs []ArraySpec, bufs [][]byte, tenant string) (*clientExecutor, error) {
	if tenant == "" {
		tenant = c.tenant
	}
	o, err := c.admit(op, suffix, specs, bufs, tenant)
	if err != nil {
		return nil, err
	}
	c.routeFrames()
	e := c.idleExecutor()
	e.seq = o.seq
	if c.running == nil {
		c.running = make(map[int]*clientExecutor)
	}
	c.running[o.seq] = e
	for _, m := range e.box.Drain(nil) {
		bufpool.Put(m.Data) // outlived the mailbox's last collective: nobody's
	}
	c.router.register(o.seq, e.box)

	// The executor is this client with the per-operation fields
	// overridden; its activity puts its own clock and transport in when
	// it takes the collective.
	e.cl = *c
	e.cl.router, e.cl.running, e.cl.execs, e.cl.idle, e.cl.lanes = nil, nil, nil, nil, traceLanes{}
	e.lane, e.cl.tr = c.lanes.take(c.cfg.Trace, "client", c.comm.Rank())
	e.jobs.Put(o)
	return e, nil
}

func (c *Client) finish(e *clientExecutor) (time.Duration, error) {
	r, perr := e.res.Pop(c.clk, nil, nil, 0)
	if perr != nil {
		return 0, fmt.Errorf("core: operation %d abandoned: %w", e.seq, perr)
	}
	delete(c.running, e.seq)
	c.lanes.free(e.lane)
	c.idle = append(c.idle, e)
	return r.elapsed, r.err
}

// idleExecutor returns an executor with nothing to run, starting one
// more activity when every one made so far is busy.
func (c *Client) idleExecutor() *clientExecutor {
	if n := len(c.idle); n > 0 {
		e := c.idle[n-1]
		c.idle = c.idle[:n-1]
		return e
	}
	e := &clientExecutor{
		jobs: queue.New[*collectiveOp](c.clk),
		box:  queue.New[mpi.Message](c.clk),
		res:  queue.New[opResult](c.clk),
	}
	c.execs = append(c.execs, e)
	node := c.comm
	c.clk.Go(fmt.Sprintf("client%d-exec%d", c.Rank(), len(c.execs)-1), func(clk clock.Clock) {
		under := mpi.RebindComm(node, clk)
		comm := newRoutedComm(under, e.box, clk)
		for {
			o, _ := e.jobs.Pop(clk, nil, nil, 0) // unbounded: cannot time out
			if o == nil {
				return
			}
			e.cl.comm, e.cl.clk = comm, clk
			t0 := clk.Now()
			operr := e.cl.collectiveSeq(o)
			// Unregister before completing: late frames for this op must be
			// rejected, not stashed forever.
			under.SendOwned(node.Rank(), tagSchedDone, encodeSchedDone(uint32(o.seq), false))
			e.res.Put(opResult{err: operr, elapsed: clk.Now() - t0})
		}
	})
	return e
}

// drainHandles awaits every collective the application abandoned, so
// the shutdown handshake never races an op still on the wire.
func (c *Client) drainHandles() {
	for len(c.running) > 0 {
		for _, e := range c.running {
			c.finish(e) //nolint:errcheck // abandoned: nobody is left to tell
			break
		}
	}
}

// clientRouter owns the client's receive and fans frames out to per-op
// mailboxes. Registration is mutex-guarded: executors on other
// activities finish (unregister) while the application goroutine
// submits (registers).
type clientRouter struct {
	c  *Client
	mu sync.Mutex

	boxes map[int]*queue.Q[mpi.Message]
	stash map[int][]mpi.Message // frames for submitted-elsewhere, not-yet-registered ops
	spare [][]mpi.Message       // replayed stashes, emptied, for the next op that needs one
	done  map[int]bool

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
			boxes:   make(map[int]*queue.Q[mpi.Message]),
			stash:   make(map[int][]mpi.Message),
			done:    make(map[int]bool),
			appDone: queue.New[mpi.Message](c.clk),
			exited:  queue.New[struct{}](c.clk),
		}
		c.router = r
	case r.lost.Load():
		r.exited.Pop(c.clk, nil, nil, 0) //nolint:errcheck // unbounded: cannot time out
		r.lost.Store(false)
	default:
		return r
	}
	c.clk.Go(fmt.Sprintf("client%d-router", c.Rank()), func(clk clock.Clock) {
		r.run(mpi.RebindComm(c.comm, clk))
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
	c.router = nil
	for _, e := range c.execs {
		e.jobs.Put(nil)
	}
	c.execs, c.idle = nil, nil
}

// register binds seq's mailbox and replays any frames that raced ahead
// of the local submission (a faster rank's op can reach our servers —
// and their replies us — before our application submits it).
func (r *clientRouter) register(seq int, box *queue.Q[mpi.Message]) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.boxes[seq] = box
	if st, ok := r.stash[seq]; ok {
		for _, m := range st {
			box.Put(m)
		}
		delete(r.stash, seq)
		clear(st)
		r.spare = append(r.spare, st[:0])
	}
}

func (r *clientRouter) unregister(seq int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.boxes, seq)
	if len(r.done) >= 1<<17 {
		r.done = make(map[int]bool) // bounded as the server router's is (sched.go)
	}
	r.done[seq] = true
	for _, m := range r.stash[seq] {
		bufpool.Put(m.Data)
	}
	delete(r.stash, seq)
}

// fail ends the loop on a link failure: every collective waiting on a
// mailbox, and the end-of-application collection, is woken to find it.
func (r *clientRouter) fail() {
	r.lost.Store(true)
	r.mu.Lock()
	for _, box := range r.boxes {
		box.Wake()
	}
	r.mu.Unlock()
	r.appDone.Wake()
}

func (r *clientRouter) run(comm mpi.Comm) {
	recv := func() (mpi.Message, error) { return comm.Recv(mpi.AnySource, mpi.AnyTag), nil }
	if dc, ok := comm.(mpi.DeadlineComm); ok { // a link failure comes back, not as a panic
		recv = func() (mpi.Message, error) { return dc.RecvTimeout(mpi.AnySource, mpi.AnyTag, 0) }
	}
	for {
		m, err := recv()
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
					r.unregister(int(seq))
				}
			}
			bufpool.Put(m.Data)
		case tagAppDone:
			r.appDone.Put(m)
		default:
			seq, family, ok := tagOpSeq(m.Tag)
			if !ok || family != 1 {
				r.c.rejectFrame(m.Data)
				continue
			}
			r.mu.Lock()
			if box := r.boxes[seq]; box != nil {
				r.mu.Unlock()
				box.Put(m)
			} else if r.done[seq] {
				r.mu.Unlock()
				r.c.rejectFrame(m.Data)
			} else {
				st, ok := r.stash[seq]
				if n := len(r.spare); !ok && n > 0 {
					st, r.spare = r.spare[n-1], r.spare[:n-1]
				}
				r.stash[seq] = append(st, m)
				r.mu.Unlock()
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
