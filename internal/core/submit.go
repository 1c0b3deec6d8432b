package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/queue"
)

// The client half of the concurrent scheduler: asynchronous submission.
//
// Each submitted collective runs on its own concurrent activity — a
// shallow Client copy executing the unchanged single-op protocol
// (collectiveSeq) against a routedComm. A per-client router owns the
// real receive and routes each tagToClient frame to the op it belongs
// to by the sequence number carried in the tag, mirroring the server
// router in sched.go.

// OpHandle is an in-flight asynchronous collective.
type OpHandle struct {
	c       *Client
	seq     int
	lane    int // the trace lane the executor records on, freed by Await
	res     *queue.Q[opResult]
	elapsed time.Duration
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
	r, perr := h.res.Pop(h.c.clk, nil, nil, 0)
	if perr != nil {
		return fmt.Errorf("core: operation %d abandoned: %w", h.seq, perr)
	}
	delete(h.c.handles, h.seq)
	h.c.lanes.free(h.lane)
	h.elapsed = r.elapsed
	return r.err
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
	if !c.cfg.Sched.enabled() {
		return nil, errors.New("core: Submit requires Config.Sched.MaxInflight > 0")
	}
	if tenant == "" {
		tenant = c.tenant
	}
	seq, chunkBytes, err := c.admit(specs, bufs)
	if err != nil {
		return nil, err
	}
	if c.router == nil {
		c.startRouter()
	}
	h := &OpHandle{c: c, seq: seq, res: queue.New[opResult](c.clk)}
	if c.handles == nil {
		c.handles = make(map[int]*OpHandle)
	}
	c.handles[seq] = h
	box := queue.New[mpi.Message](c.clk)
	c.router.register(seq, box)

	// The executor is this client with the per-operation fields
	// overridden — copied here, on the submitting goroutine, which owns
	// opSeq, handles and lanes. comm and clk are rebound on its own activity.
	ec := new(Client)
	*ec = *c
	ec.router, ec.handles, ec.lanes = nil, nil, traceLanes{}
	h.lane, ec.tr = c.lanes.take(c.cfg.Trace, "client", c.Rank())
	c.clk.Go(fmt.Sprintf("client%d-op%d", c.Rank(), seq), func(clk clock.Clock) {
		under := mpi.RebindComm(c.comm, clk)
		ec.comm = newRoutedComm(under, box, clk)
		ec.clk = clk
		t0 := clk.Now()
		operr := ec.collectiveSeq(op, suffix, specs, bufs, seq, chunkBytes, tenant)
		// Unregister before completing: late frames for this op must be
		// rejected, not stashed forever.
		under.Send(c.comm.Rank(), tagSchedDone, encodeSchedDone(uint32(seq), false))
		h.res.Put(opResult{err: operr, elapsed: clk.Now() - t0})
	})
	return h, nil
}

// drainHandles awaits every handle the application abandoned, so the
// shutdown handshake never races an op still on the wire.
func (c *Client) drainHandles() {
	for len(c.handles) > 0 {
		for seq, h := range c.handles {
			_ = h.Await()
			delete(c.handles, seq) // Await deletes; belt and braces
			break
		}
	}
}

// clientRouter owns the client's receive while the scheduler is active
// and fans frames out to per-op mailboxes. Registration is mutex-
// guarded: executors on other activities finish (unregister) while the
// application goroutine submits (registers).
type clientRouter struct {
	c  *Client
	mu sync.Mutex

	boxes map[int]*queue.Q[mpi.Message]
	stash map[int][]mpi.Message // frames for submitted-elsewhere, not-yet-registered ops
	done  map[int]bool

	appDone *queue.Q[mpi.Message] // master: peers' end-of-app notices
	exited  *queue.Q[struct{}]
}

func (c *Client) startRouter() {
	r := &clientRouter{
		c:       c,
		boxes:   make(map[int]*queue.Q[mpi.Message]),
		stash:   make(map[int][]mpi.Message),
		done:    make(map[int]bool),
		appDone: queue.New[mpi.Message](c.clk),
		exited:  queue.New[struct{}](c.clk),
	}
	c.router = r
	c.clk.Go(fmt.Sprintf("client%d-router", c.Rank()), func(clk clock.Clock) {
		r.run(mpi.RebindComm(c.comm, clk))
		r.exited.Put(struct{}{})
	})
}

// stopRouter tells the router to exit via a loopback frame and joins
// it, returning receive ownership of the communicator to the caller.
func (c *Client) stopRouter() {
	if c.router == nil {
		return
	}
	c.comm.Send(c.comm.Rank(), tagRouterStop, nil)
	c.router.exited.Pop(c.clk, nil, nil, 0)
	c.router = nil
}

// register binds seq's mailbox and replays any frames that raced ahead
// of the local submission (a faster rank's op can reach our servers —
// and their replies us — before our application submits it).
func (r *clientRouter) register(seq int, box *queue.Q[mpi.Message]) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.boxes[seq] = box
	for _, m := range r.stash[seq] {
		box.Put(m)
	}
	delete(r.stash, seq)
}

func (r *clientRouter) unregister(seq int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.boxes, seq)
	r.done[seq] = true
	for _, m := range r.stash[seq] {
		bufpool.Put(m.Data)
	}
	delete(r.stash, seq)
}

func (r *clientRouter) run(comm mpi.Comm) {
	for {
		m := comm.Recv(mpi.AnySource, mpi.AnyTag)
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
				r.stash[seq] = append(r.stash[seq], m)
				r.mu.Unlock()
			}
		}
	}
}

// collectAppDone is the master's end-of-application collection: peers'
// tagAppDone frames arrive through the router when one is running,
// straight off the communicator otherwise. Bounded per peer when
// OpTimeout is set.
func (c *Client) collectAppDone() {
	for i := 1; i < c.cfg.NumClients; i++ {
		if c.router != nil {
			if _, err := c.router.appDone.Pop(c.clk, nil, nil, c.cfg.OpTimeout); err != nil {
				break // a peer is gone or late; shut down anyway
			}
		} else {
			if _, err := recvBounded(c.comm, c.clk, mpi.AnySource, tagAppDone, opDeadline(c.cfg, c.clk)); err != nil {
				break
			}
		}
	}
}
