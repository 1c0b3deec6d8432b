package core

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"sort"

	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/queue"
	"panda/internal/storage"
)

// The serve loop: every server is a router + executor pool, and
// Config.Sched.MaxInflight only bounds how many operations the master
// dispatches at once (0 serves one at a time, as the paper does):
//
//	router    — Serve. It owns the only real receive on the
//	            communicator (AnySource/AnyTag), classifies each frame
//	            by tag, and hands it to the operation it belongs to
//	            through the node's frame table (opFrames, node.go, the
//	            client router's too). Its policy: an admitted op is
//	            coming, so its frames are stashed until it is
//	            dispatched; frames for any other op are rejected, never
//	            absorbed into another op's state.
//	admission — the master server's router runs a bounded queue with a
//	            deficit-round-robin dispatcher: per-tenant weighted
//	            byte credit, per-array conflict serialization, ErrBusy
//	            backpressure when the queue is full. Non-master servers
//	            dispatch forwarded requests immediately — the master
//	            already made the scheduling decision for the
//	            deployment. A whole-op retry (the same seq, a higher
//	            attempt) of a live operation waits for that attempt to
//	            retire; of a retired one it is admitted anew; any other
//	            repeat of a seq is a duplicate, rejected.
//	executors — one per in-flight op, from the node's pool (execPool,
//	            node.go, the client's too): a shallow copy of the Server
//	            running the unchanged single-op protocol (handleOp) on
//	            the executor's own activity, against a routedComm whose
//	            receives come from the op's mailbox. An executor outlives
//	            its operation — the pool keeps the idle ones and makes
//	            another only when concurrency exceeds them all — so a
//	            dispatch allocates nothing. Each op counts into a private
//	            block chained to the node totals (counters.go), so per-op
//	            attribution is exact.
//	disk      — the node's one storage stage, diskSched (disksched.go,
//	            engine.go), shared by every executor: it batches and
//	            merges adjacent requests across ops, and serves each op a
//	            window the knobs size — zero, the paper's serial loop, at
//	            MaxInflight 0 with no overlap knob set.
//
// An executor announces completion by sending a SchedDone frame to its
// own rank — a node-local loopback that works identically on the
// in-process, TCP and simulated transports — so the router stays a
// single-wait loop with exactly one wake-up source.

// schedOp is one collective operation moving through the scheduler:
// admitted (queued, stash accumulating), dispatched (box live, executor
// running), then retired.
type schedOp struct {
	seq    int
	raw    []byte // the request frame, owned until the executor finishes
	req    opRequest
	tenant string
	cost   int64               // payload bytes, the DRR currency
	keys   []uint64            // conflict keys: one per array file set
	ex     *executor[*schedOp] // running it, from start to retire
	srv    Server              // the node copy ex runs it as
	err    error               // its fatal error, read by retire
	lane   int                 // the trace lane ex records on, held as long
	held   []byte              // a later attempt's request, admitted when this one retires
	heldAt uint16              // its attempt (0 while none is held)
}

// reqCost prices an operation for the DRR dispatcher: the total payload
// bytes it moves.
func reqCost(req opRequest) int64 {
	var n int64
	for _, spec := range req.Specs {
		n += spec.TotalBytes()
	}
	if n <= 0 {
		n = 1
	}
	return n
}

// conflictKeys appends to keys the file sets an operation touches, each
// as a hash of the name its files start with (array name, then suffix).
// Two ops sharing a key are serialized by the dispatcher: concurrent
// collectives on the same array have no defined order, and overlapping
// epoch resolution would corrupt the commit protocol. (Two file sets
// whose hashes collide are serialized too — once in 2^64, harmlessly.)
func conflictKeys(keys []uint64, req opRequest) []uint64 {
	for _, spec := range req.Specs {
		var h maphash.Hash
		h.SetSeed(conflictSeed)
		h.WriteString(spec.Name)
		h.WriteString(req.Suffix)
		keys = append(keys, h.Sum64())
	}
	return keys
}

var conflictSeed = maphash.MakeSeed()

// schedCore is the admission queue + deficit-round-robin dispatcher,
// kept free of any I/O so the fairness property tests can drive it
// directly. Tenants accumulate byte credit (quantum x weight) once per
// round; a tenant's head op dispatches when its credit covers the op's
// cost, so long-run dispatched bytes converge to the weight vector
// whenever every tenant stays backlogged.
type schedCore struct {
	cfg      *SchedConfig // the router's own: a reconfig re-tunes the core in place
	order    []string     // sorted tenant names, the round-robin ring
	known    map[string]bool
	queues   map[string][]*schedOp
	deficit  map[string]int64
	busy     map[uint64]int // conflict key -> in-flight ops holding it
	queued   int
	inflight int
	rr       int // rotation point of the visit order
	rng      *rand.Rand
}

func newSchedCore(cfg *SchedConfig, seed int64) *schedCore {
	sc := &schedCore{
		cfg:     cfg,
		known:   make(map[string]bool),
		queues:  make(map[string][]*schedOp),
		deficit: make(map[string]int64),
		busy:    make(map[uint64]int),
	}
	if seed != 0 {
		sc.rng = rand.New(rand.NewSource(seed))
	}
	return sc
}

// admit appends op to its tenant's queue, refusing when the shared
// admission queue is at its bound.
func (sc *schedCore) admit(op *schedOp) bool {
	if sc.queued >= sc.cfg.queueDepth() {
		return false
	}
	if !sc.known[op.tenant] {
		sc.known[op.tenant] = true
		sc.order = append(sc.order, op.tenant)
		sort.Strings(sc.order)
	}
	sc.queues[op.tenant] = append(sc.queues[op.tenant], op)
	sc.queued++
	return true
}

// visitOrder is the tenant order for one dispatch scan, as a ring and
// the index to start walking it from: the tenant ring itself from the
// rotation point by default, a seeded shuffle of it when
// Config.schedSeed asks the conformance suite's randomized interleaves
// for.
func (sc *schedCore) visitOrder() (ring []string, from int) {
	if sc.rng == nil {
		return sc.order, sc.rr
	}
	out := make([]string, len(sc.order))
	copy(out, sc.order)
	sc.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, 0
}

// conflicted reports whether any of op's file sets is held by an
// in-flight operation.
func (sc *schedCore) conflicted(op *schedOp) bool {
	for _, k := range op.keys {
		if sc.busy[k] > 0 {
			return true
		}
	}
	return false
}

// next picks the next dispatchable operation, or nil when every queued
// head is conflict-blocked (or nothing is queued). The caller owns the
// concurrency bound; next only owns fairness and conflicts.
func (sc *schedCore) next() *schedOp {
	if sc.queued == 0 {
		return nil
	}
	for {
		ring, from := sc.visitOrder()
		for i := range ring {
			t := ring[(from+i)%len(ring)]
			q := sc.queues[t]
			if len(q) == 0 {
				continue
			}
			head := q[0]
			if sc.conflicted(head) {
				continue
			}
			if sc.deficit[t] >= head.cost {
				q[0] = nil
				sc.queues[t] = q[1:]
				sc.queued--
				sc.deficit[t] -= head.cost
				if len(q) == 1 {
					// Classic DRR: an idle tenant keeps no credit, so a
					// returning tenant cannot burst past its share. (And
					// its queue keeps its array.)
					sc.deficit[t] = 0
					sc.queues[t] = q[:0]
				}
				sc.inflight++
				for _, k := range head.keys {
					sc.busy[k]++
				}
				sc.rr++
				return head
			}
		}
		// No head is affordable: credit one round to every eligible
		// tenant. Conflict-blocked tenants earn nothing — banking credit
		// they cannot spend would burst when the conflict clears.
		credited := false
		for _, t := range sc.order {
			q := sc.queues[t]
			if len(q) == 0 || sc.conflicted(q[0]) {
				continue
			}
			credited = true
			sc.deficit[t] += int64(sc.cfg.weight(t)) * sc.cfg.quantum()
		}
		if !credited {
			return nil
		}
	}
}

// complete releases a retired operation's conflict keys.
func (sc *schedCore) complete(op *schedOp) {
	sc.inflight--
	for _, k := range op.keys {
		if sc.busy[k]--; sc.busy[k] <= 0 {
			delete(sc.busy, k)
		}
	}
}

// flush empties every queue — cleanup on a fatal router exit.
func (sc *schedCore) flush() []*schedOp {
	var out []*schedOp
	for _, t := range sc.order {
		out = append(out, sc.queues[t]...)
		sc.queues[t] = nil
	}
	sc.queued = 0
	return out
}

// schedRouter is the per-server scheduler state around schedCore: the
// op table, the drain machinery, and the metrics plumbing.
type schedRouter struct {
	s        *Server
	core     *schedCore       // master server only; nil elsewhere
	table    *dispatchTable   // master server only: what it dispatched and has not retired
	ops      map[int]*schedOp // admitted (queued or in flight), by seq
	frames   *opFrames
	pool     execPool[*schedOp]
	lanes    traceLanes
	inflight int
	draining bool
	fatal    error
	freeOps  []*schedOp // retired, for the next operation to use again
}

// Serve handles collective operations until a shutdown message
// arrives. It returns nil on orderly shutdown; protocol-level failures
// inside an operation are reported to the clients through the
// completion status, not returned here. An injected crash kills the
// server: Serve returns it once nothing else is in flight. With
// OpTimeout set, Serve also returns (with an error wrapping ErrPeerLost)
// when the transport reports the master client dead.
func (s *Server) Serve() error {
	r := &schedRouter{s: s, ops: make(map[int]*schedOp), frames: newOpFrames()}
	r.pool = execPool[*schedOp]{clk: s.clk, name: fmt.Sprintf("server%d", s.index), body: r.execute}
	if s.IsMaster() {
		r.core = newSchedCore(&s.cfg.Sched, s.cfg.schedSeed)
		r.table = s.cfg.dispatched
		if r.table == nil {
			r.table = new(dispatchTable)
		}
	}
	s.dsched = newDiskSched(s)
	defer s.dsched.stop()
	defer r.pool.stop() // each executor's activity ends once it has finished what it runs

	for {
		if r.fatal != nil && r.inflight == 0 {
			if r.core != nil {
				for _, op := range r.core.flush() {
					bufpool.Put(op.raw)
				}
			}
			return fmt.Errorf("core: server %d: %w", s.index, r.fatal)
		}
		if r.draining && len(r.ops) == 0 {
			if s.cfg.Service && r.core != nil {
				// Service drain cascade: the shutdown frame reaches only
				// the master, which forwards it once every distributed
				// operation has fully retired — a non-master can never be
				// told to exit while an op it must serve is still coming.
				for i := 1; i < s.cfg.NumServers; i++ {
					s.comm.Send(s.cfg.ServerRank(i), tagControl, encodeShutdown())
				}
			}
			return nil
		}
		// The router's single wait: every wake-up — protocol frames,
		// forwarded requests, executor completions — arrives here.
		m, err := s.recvIdle(func() bool { return len(r.ops) > 0 })
		if err != nil {
			return fmt.Errorf("core: server %d: %w", s.index, err)
		}
		r.route(m)
	}
}

// route classifies one frame by tag and delivers it. The router never
// counts routed frames — the executor that pops a frame counts it, so
// the node totals stay exactly the sum of the per-op blocks (plus the
// router-attributed FramesRejected/SchedBusy).
func (r *schedRouter) route(m mpi.Message) {
	switch m.Tag {
	case tagSchedDone:
		rb := rbuf{b: m.Data}
		if rb.u8() == msgSchedDone {
			if seq, fatal, err := decodeSchedDone(&rb); err == nil {
				r.retire(int(seq), fatal)
			}
		}
		bufpool.Put(m.Data)
	case tagControl:
		if len(m.Data) == 0 {
			return
		}
		switch m.Data[0] {
		case msgShutdown:
			r.draining = true
			bufpool.Put(m.Data)
		case msgOpRequest:
			r.handleRequest(m)
		case msgReconfig:
			r.applyReconfig(m.Data)
		default:
			r.s.reject(m.Data)
		}
	default:
		// An op is coming once admitted: its frames wait in the stash
		// until it is dispatched. Any other frame is stale or misdirected
		// traffic, rejected — the isolation guarantee: it can never reach
		// another op's state.
		seq, _, ok := tagOpSeq(m.Tag)
		if !ok || !r.frames.deliver(seq, m, r.ops[seq] != nil) {
			r.s.reject(m.Data)
		}
	}
}

// handleRequest admits one operation. On the master that means the
// bounded queue and the DRR dispatcher; elsewhere the master's
// forwarded request dispatches immediately. A retry of a live operation
// is held until the attempt in hand has run out its deadline and retired.
func (r *schedRouter) handleRequest(m mpi.Message) {
	s := r.s
	req, derr := decodeOpRequest(m.Data)
	if derr != nil || r.fatal != nil {
		s.reject(m.Data)
		return
	}
	seq := int(req.Seq)
	if op := r.ops[seq]; op != nil {
		if req.Attempt <= max(op.req.Attempt, op.heldAt) {
			s.reject(m.Data)
			return
		}
		if op.held != nil {
			s.reject(op.held)
		}
		op.held, op.heldAt = m.Data, req.Attempt
		return
	}
	if ran, retired := r.frames.retired(seq); retired && req.Attempt <= ran {
		s.reject(m.Data)
		return
	}
	if r.draining && r.core != nil {
		// A draining service finishes what it admitted and refuses the
		// rest, so the client gets a typed answer instead of a hang.
		r.refuse(req, ErrDraining)
		bufpool.Put(m.Data)
		return
	}
	op := r.newOp()
	op.seq, op.raw, op.req, op.tenant = seq, m.Data, req, req.Tenant
	if r.core == nil {
		r.ops[seq] = op
		r.start(op)
		return
	}
	op.cost, op.keys = reqCost(req), conflictKeys(op.keys, req)
	if !r.core.admit(op) {
		s.total[cSchedBusy].Add(1)
		r.refuse(req, ErrBusy)
		bufpool.Put(op.raw)
		r.recycleOp(op)
		return
	}
	r.ops[seq] = op
	s.met.schedQueue.Set(int64(r.core.queued))
	r.dispatch()
}

// refuse answers a request the router will not run with a Complete
// carrying err, sent to the requesting group's leader.
func (r *schedRouter) refuse(req opRequest, err error) {
	leader := (&node{ranks: req.Ranks}).groupRank(0)
	r.s.comm.Send(leader, tagToClient(int(req.Seq)), encodeStatus(msgComplete, req.Attempt, req.Round, err))
}

// publish enters one operation the master dispatches into the dispatch
// table, pinned to the membership view of this instant: the slots
// currently down become its Deads (the failover replanner's input, so
// planning excludes them outright rather than discovering them by
// timeout) and the membership epoch is recorded so servers can
// invalidate plan caches and a drain can wait for exactly the ops
// planned before its fence. Draining members are fenced from writes
// only — they keep serving reads of the epochs they own, which is what
// lets migration copy their chunks off.
//
// The stamp is taken under the table's lock, epoch before slots: a
// fence that finds no earlier-epoch op in the table therefore misses
// no op still being stamped, and an op that read the old epoch read a
// down-set no older than it.
func (r *schedRouter) publish(op *schedOp) {
	t, mem := r.table, r.s.cfg.Members
	t.mu.Lock()
	defer t.mu.Unlock()
	if mem != nil {
		op.req.MemberEpoch = mem.Epoch()
		var down []int
		if op.req.Op == opRead {
			down = mem.DownForRead()
		} else {
			down = mem.DownForWrite()
		}
		op.req.Deads = mergeDeads(op.req.Deads, down)
	}
	t.ops = append(t.ops, DispatchedOp{Seq: op.seq, Tenant: op.tenant, Op: opName(op.req.Op),
		MemberEpoch: op.req.MemberEpoch, At: r.s.clk.Now()})
	t.inflight.Set(int64(len(t.ops)))
}

// mergeDeads unions two dead-slot lists into one sorted list; a is
// returned as is when b adds nothing, and never modified.
func mergeDeads(a, b []int) []int {
	have := deadSet(a)
	out := a[:len(a):len(a)]
	for _, v := range b {
		if !have[v] {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// applyReconfig installs new scheduler and pipeline tuning broadcast by
// a service reload. The mutation is race-free by construction: it runs
// on the router goroutine, and executors snapshot the configuration
// when they start — in-flight operations keep the knobs they began
// with, only subsequently dispatched ones see the new ones.
// MaxInflight == 0 means "keep the current bound" (zero would close the
// write window mid-run); every other field is installed verbatim, with
// zero values meaning the deployment defaults as usual; the admission
// core's rng and queue state survive the reload.
func (r *schedRouter) applyReconfig(b []byte) {
	rc, err := decodeReconfig(b)
	if err != nil {
		r.s.reject(b)
		return
	}
	r.s.cfg.reconfigure(rc) // the admission core reads it through its pointer
	bufpool.Put(b)
	// A widened MaxInflight frees executor slots immediately.
	r.dispatch()
}

// dispatch fills free executor slots from the DRR dispatcher.
func (r *schedRouter) dispatch() {
	if r.core == nil || r.fatal != nil {
		return
	}
	for r.inflight < max(1, r.s.cfg.Sched.MaxInflight) {
		op := r.core.next()
		if op == nil {
			break
		}
		r.start(op)
	}
	r.s.met.schedQueue.Set(int64(r.core.queued))
}

// newOp returns a blank schedOp, a retired one when there is one.
func (r *schedRouter) newOp() *schedOp {
	if n := len(r.freeOps); n > 0 {
		op := r.freeOps[n-1]
		r.freeOps = r.freeOps[:n-1]
		return op
	}
	return new(schedOp)
}

// recycleOp takes back an operation nothing refers to any more (a held
// request was taken).
func (r *schedRouter) recycleOp(op *schedOp) {
	*op = schedOp{keys: op.keys[:0]}
	r.freeOps = append(r.freeOps, op)
}

// start hands one dispatched operation to an executor, with a copy of
// the node to run it as and its own trace lane.
func (r *schedRouter) start(op *schedOp) {
	s := r.s
	if r.core != nil {
		r.publish(op)
	}
	if s.cfg.dispatchHook != nil {
		s.cfg.dispatchHook(op.seq)
	}
	e := r.pool.take()
	r.frames.bind(op.seq, e.box)
	op.ex = e
	r.inflight++

	// The copy is the node itself with the per-operation fields
	// overridden: whatever the node shares (counters, metrics, storage
	// stage, plan cache) reaches it without being listed here. s.cfg is
	// copied with it — the snapshot applyReconfig relies on. The
	// executor puts its own clock, transport and disk in when it takes
	// the operation.
	op.srv = *s
	op.srv.tenant = op.tenant
	op.lane, op.srv.tr = r.lanes.take(s.cfg.Trace, "server", s.index)
	e.jobs.Put(op)
}

// execute is the body of every executor of the node's pool: the
// activity's own views of what the node shares — sends on its clock
// and receives from the mailbox, metadata I/O (manifests, decision
// records, renames) on its clock; bulk data goes through dsched, whose
// replies come back here — and the unchanged single-op protocol
// (handleOp) for each operation it is handed.
func (r *schedRouter) execute(clk clock.Clock, e *executor[*schedOp]) {
	s := r.s
	under := mpi.RebindComm(s.comm, clk)
	comm := newRoutedComm(under, e.box, clk)
	disk := storage.RebindClock(s.disk, clk)
	replies := queue.New[diskReply](clk)
	for {
		op, _ := e.jobs.Pop(clk, nil, nil, 0) // unbounded: cannot time out
		if op == nil {
			return
		}
		ex := &op.srv
		ex.clk, ex.comm, ex.disk, ex.replies = clk, comm, disk, replies
		ex.adoptRound(op.req)
		ex.opSeq, ex.ranks = op.seq, op.req.Ranks
		ex.plans.seeEpoch(op.req.MemberEpoch)
		op.err = ex.handleOp(op.raw, op.req)
		bufpool.Put(op.raw)
		// Loopback completion: the router's single wait retires the op.
		under.SendOwned(s.comm.Rank(), tagSchedDone, encodeSchedDone(uint32(op.seq), op.err != nil))
	}
}

// retire folds a finished executor back into the node: release its
// conflict keys, take it out of the dispatch table, and dispatch the
// next operation.
func (r *schedRouter) retire(seq int, fatal bool) {
	op, ok := r.ops[seq]
	if !ok || op.ex == nil {
		return // duplicate loopback; harmless
	}
	delete(r.ops, seq)
	r.frames.retire(seq, op.req.Attempt)
	r.lanes.free(op.lane)
	r.pool.give(op.ex)
	r.inflight--
	s := r.s
	// A retry of this seq pulls under request IDs the retired attempt
	// never used, so its late replies read as stale.
	s.nextReqID = max(s.nextReqID, op.srv.nextReqID)
	if r.core != nil {
		r.core.complete(op)
		t := r.table
		t.mu.Lock()
		t.ops = slices.DeleteFunc(t.ops, func(d DispatchedOp) bool { return d.Seq == seq })
		t.inflight.Set(int64(len(t.ops)))
		t.mu.Unlock()
	}
	if fatal && r.fatal == nil {
		r.fatal = fmt.Errorf("operation %d: %w", seq, op.err)
	}
	held := op.held
	r.recycleOp(op)
	if held != nil {
		r.handleRequest(mpi.Message{Tag: tagControl, Data: held})
	}
	r.dispatch()
}
