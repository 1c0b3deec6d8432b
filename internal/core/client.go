package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"panda/internal/array"
	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/obs"
)

// Client is a Panda client: the library code linked into the
// application on one compute node. Its collective methods block until
// the whole operation completes on every node, per the paper's
// synchronized SPMD model; while blocked, the client answers the
// servers' sub-chunk requests (writes) and absorbs incoming sub-chunk
// data (reads).
type Client struct {
	node

	elapsedNs *int64
	opSeq     int // sequence number of the next collective
	seqEnd    int // end of this client's sequence window (exclusive); see admit

	// memIndex is the memory-chunk index this client holds of every
	// array — equal to the communicator rank on fixed-shape deployments,
	// the position within the session's member list (node.ranks) under a
	// service daemon.
	memIndex int
	// tenant is the default scheduler tenant for this client's
	// collectives (sessions attribute their traffic without threading a
	// tenant through every blocking call). SubmitWrite/SubmitRead's
	// explicit tenant wins when non-empty.
	tenant string

	// Collective state (submit.go), application goroutine only: router
	// demultiplexes incoming frames by op to the executors running them,
	// running holds the outstanding submissions by seq and lanes their
	// executors' trace tracks.
	router  *clientRouter
	running map[int]*executor[*collectiveOp]
	lanes   traceLanes
}

// NewClient creates the client endpoint for one compute node.
func NewClient(cfg Config, comm mpi.Comm, clk clock.Clock) *Client {
	return &Client{
		node: node{
			cfg:  cfg,
			comm: asEndpoint(comm),
			clk:  clk,
			tr:   cfg.Trace.Track(fmt.Sprintf("client%d", comm.Rank())),
			met:  newNodeMetrics(cfg.Metrics),
			cnt:  newNodeCounters(cfg.Metrics),
		},
		elapsedNs: new(int64),
		memIndex:  comm.Rank(),
		seqEnd:    maxSeq + 1,
	}
}

// NewSessionClient creates the client endpoint for one member of a
// dynamic session attached to a resident service: ranks lists every
// member's world rank in memory-chunk order, memIndex is this member's
// position in it (member 0 leads the session), and seqBase offsets the
// operation counter so concurrent sessions' sequence numbers — and
// with them the per-op message tags — never collide on the shared
// servers.
func NewSessionClient(cfg Config, comm mpi.Comm, clk clock.Clock, ranks []int, memIndex, seqBase int) (*Client, error) {
	if memIndex < 0 || memIndex >= len(ranks) {
		return nil, fmt.Errorf("core: session member %d of %d", memIndex, len(ranks))
	}
	if comm.Rank() != ranks[memIndex] {
		return nil, fmt.Errorf("core: endpoint rank %d but session assigns rank %d to member %d",
			comm.Rank(), ranks[memIndex], memIndex)
	}
	c := NewClient(cfg, comm, clk)
	c.memIndex = memIndex
	c.ranks = append([]int(nil), ranks...)
	c.opSeq, c.seqEnd = seqBase, seqBase+1<<sessionSeqBits
	return c, nil
}

// SetTenant sets the default scheduler tenant attributed to this
// client's collectives.
func (c *Client) SetTenant(t string) { c.tenant = t }

// Shutdown finishes this client's local machinery — outstanding
// submissions are awaited and the frame router is joined — without the
// fixed-shape end-of-application handshake: a session member detaches,
// the resident service keeps serving everyone else.
func (c *Client) Shutdown() {
	c.drainHandles()
	c.stopRouter()
}

// Rank returns this client's memory-chunk index: its communicator rank
// on fixed-shape deployments, its position in the session member list
// under a service daemon. It is the chunk of every array this client
// holds.
func (c *Client) Rank() int { return c.memIndex }

// IsMaster reports whether this client coordinates its group: the
// master client on fixed deployments, the session leader (member 0)
// under a service daemon.
func (c *Client) IsMaster() bool { return c.memIndex == 0 }

// Stats returns a race-clean snapshot of the client's traffic
// counters; safe to call from any goroutine, even mid-operation.
func (c *Client) Stats() Stats { return c.cnt.snapshot() }

// LastElapsed reports the time this client spent inside its most
// recent collective call — the quantity the paper's elapsed-time
// metric takes the maximum of across compute nodes.
func (c *Client) LastElapsed() time.Duration { return time.Duration(atomic.LoadInt64(c.elapsedNs)) }

// WriteArrays collectively writes the given arrays. bufs[i] is this
// client's memory chunk of specs[i] and must hold exactly its chunk's
// bytes. suffix is appended to file names (e.g. ".t4", ".ckpt", "").
func (c *Client) WriteArrays(suffix string, specs []ArraySpec, bufs [][]byte) error {
	return c.collective(opWrite, suffix, specs, bufs)
}

// ReadArrays collectively reads the given arrays into bufs.
func (c *Client) ReadArrays(suffix string, specs []ArraySpec, bufs [][]byte) error {
	return c.collective(opRead, suffix, specs, bufs)
}

// collectiveOp is one collective operation on this client: what the call
// was given, and what follows from it — worked out once, when the call
// is admitted, and used by every message of the operation.
type collectiveOp struct {
	op     byte
	suffix string
	specs  []ArraySpec
	bufs   [][]byte
	tenant string
	seq    int // the operation's identity on the wire (protocol.go)

	chunks     []array.Region // this client's memory chunk of each array
	chunkBytes int64          // their bytes in all

	// Read progress, kept across attempts: a piece absorbed stays absorbed.
	seen     map[pieceID]bool
	gotBytes int64

	// Its posted op (postedOps), if any; placing and unposted are
	// guarded by posted.mu, for whoever places its frames shares them.
	posted   *postedOps
	placing  int  // placements of its frames in progress
	unposted bool // it takes no new placement

	space regionSpace // the bounds of the region in the frame in hand

	// Its run on an executor (submit.go): the trace lane it records on,
	// held from start to finish, and what it came to.
	lane    int
	tr      obs.Track
	err     error
	elapsed time.Duration
}

// collective is a submission awaited at once (submit.go), so the
// blocking API composes with concurrent submissions from the same
// application.
func (c *Client) collective(op byte, suffix string, specs []ArraySpec, bufs [][]byte) error {
	seq, e, err := c.start(op, suffix, specs, bufs, "")
	if err != nil {
		return err
	}
	_, err = c.finish(seq, e)
	return err
}

// admit validates a collective call's arguments, works out this
// client's chunk of every array, and assigns the call its sequence
// number. A client whose window is spent is refused here, before
// anything is sent: the next number is the next session's first.
func (c *Client) admit(op byte, suffix string, specs []ArraySpec, bufs [][]byte, tenant string) (*collectiveOp, error) {
	if err := validateSpecsN(c.cfg, c.groupSize(), specs); err != nil {
		return nil, err
	}
	if len(bufs) != len(specs) {
		return nil, fmt.Errorf("core: %d buffers for %d arrays", len(bufs), len(specs))
	}
	o := &collectiveOp{op: op, suffix: suffix, specs: specs, bufs: bufs, tenant: tenant, chunks: make([]array.Region, len(specs))}
	for i, spec := range specs {
		o.chunks[i] = spec.MemChunk(c.Rank())
		want := o.chunks[i].NumElems() * int64(spec.ElemSize)
		if int64(len(bufs[i])) != want {
			return nil, fmt.Errorf("core: client %d: buffer for array %s holds %d bytes, chunk needs %d",
				c.Rank(), spec.Name, len(bufs[i]), want)
		}
		o.chunkBytes += want
	}
	if c.opSeq >= c.seqEnd {
		return nil, fmt.Errorf("core: client %d ran every collective up to sequence %d: %w", c.Rank(), c.seqEnd-1, ErrSeqWindow)
	}
	o.seq = c.opSeq
	c.opSeq++
	return o, nil
}

// collectiveSeq runs one admitted collective: the retry loop around
// runAttempt, on a per-op executor working on a routed copy of the
// client. The master client sends the high-level request to the master
// server on the fixed control tag, carrying the sequence explicitly;
// all other traffic of the operation carries its sequence in the tag.
func (c *Client) collectiveSeq(o *collectiveOp) error {
	start := c.clk.Now()
	defer func() { atomic.StoreInt64(c.elapsedNs, int64(c.clk.Now()-start)) }()
	if c.tr.Enabled() {
		defer func() { c.tr.Span(obs.CatOp, opName(o.op), o.seq, start, c.clk.Now(), o.chunkBytes) }()
	}

	// The retry loop: a collective that fails with ErrTimeout or
	// ErrPeerLost is re-submitted under the same sequence with an
	// incremented attempt counter. Pulls are idempotent, the absorbed-
	// piece state persists across attempts, and servers deduplicate by
	// (seq, attempt), so a retry resumes rather than corrupts.
	maxAttempts := 1
	if c.cfg.OpTimeout > 0 && c.cfg.Retry.Max > 0 {
		maxAttempts = c.cfg.Retry.Max + 1
	}
	if o.op == opRead {
		o.seen = make(map[pieceID]bool)
	}
	var rng *rand.Rand
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			pause := c.cfg.Retry.pause(attempt - 1)
			if c.cfg.Retry.Jitter > 0 && pause > 0 {
				if rng == nil {
					// Deterministic per rank and operation, so simulated
					// retries replay exactly while real ranks desynchronize.
					rng = rand.New(rand.NewSource(int64(c.Rank())*2654435761 + int64(o.seq) + 1))
				}
				pause = time.Duration(float64(pause) * (1 + c.cfg.Retry.Jitter*(2*rng.Float64()-1)))
			}
			c.cnt[cRetries].Add(1)
			c.tr.Instant(obs.CatRecover, fmt.Sprintf("retry attempt %d", attempt), o.seq, c.clk.Now(), 0)
			if pause > 0 {
				c.clk.Sleep(pause)
			}
		}
		err := c.runAttempt(o, uint16(attempt))
		if err == nil {
			return nil
		}
		lastErr = err
		if !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrPeerLost) {
			return err // not a transient failure; retrying cannot help
		}
	}
	return lastErr
}

// runAttempt submits (on the master) and serves one attempt of a
// collective operation until its Complete arrives or the attempt's
// deadline expires.
func (c *Client) runAttempt(o *collectiveOp, attempt uint16) error {
	seq := o.seq
	deadline := clientOpDeadline(c.cfg, c.clk)
	if c.IsMaster() {
		req := encodeOpRequest(opRequest{Op: o.op, Seq: uint32(seq), Attempt: attempt, Suffix: o.suffix, Specs: o.specs, Tenant: o.tenant, Ranks: c.ranks})
		c.tr.Instant(obs.CatCtl, "op request", seq, c.clk.Now(), int64(len(req)))
		c.send(c.cfg.MasterServer(), tagControl, req)
	}

	// On reads the client knows exactly how many bytes it must absorb,
	// so it can (a) drop duplicate pieces a faulty transport delivers
	// twice and (b) keep waiting when a Complete overtakes in-flight
	// data on a transport with no cross-pair ordering.
	var wantBytes int64
	if o.op == opRead {
		wantBytes = o.chunkBytes
	}
	completed := false

	for {
		if completed && o.gotBytes >= wantBytes {
			return nil
		}
		m, err := c.recv(tagToClient(seq), deadline)
		if err != nil {
			c.cnt[cTimeouts].Add(1)
			return fmt.Errorf("core: client %d, operation %d: %w", c.Rank(), seq, err)
		}
		if len(m.Data) == 0 {
			return errors.New("core: client received empty message")
		}
		r := rbuf{b: m.Data}
		switch t := r.u8(); t {
		case msgSubReq:
			q, err := decodeSubReq(&r, &o.space)
			if err != nil {
				return err
			}
			if err := c.serveRequest(o, m.Source, q); err != nil {
				return err
			}
			bufpool.Put(m.Data) // the request is fully decoded; recycle the frame
		case msgSubData:
			d, err := decodeSubData(&r, &o.space)
			if err != nil {
				return err
			}
			key := pieceKey(d.ArrayIdx, d.Region)
			if o.seen != nil && o.seen[key] {
				bufpool.Put(m.Data)
				continue // duplicate delivery of a piece already absorbed
			}
			if m.Placed > 0 {
				// Read from the socket into its place in the chunk; the
				// table made absorbData's checks before it said where.
				c.chargeContig(int64(m.Placed))
				c.cnt[cZeroCopyBytes].Add(int64(m.Placed))
			} else if err := c.absorbData(o, d); err != nil {
				return err
			}
			if o.seen != nil {
				o.seen[key] = true
				o.gotBytes += int64(len(d.Payload) + m.Placed)
			}
			bufpool.Put(m.Data) // the payload is in the user buffer; recycle the frame
		case msgComplete:
			frame, err := decodeStatus(&r)
			if err != nil {
				return err
			}
			// Relay completion onward — before acting on the outcome, so
			// a failure reaches every rank even when this one unwinds:
			// the master to everyone on flat groups, this rank's tree
			// children when topology schedules are on.
			for _, rank := range c.completeDests() {
				cp := bufpool.GetRaw(len(m.Data))
				copy(cp, m.Data)
				c.send(rank, tagToClient(seq), cp)
			}
			bufpool.Put(m.Data) // status decoded and relayed; recycle the frame
			if frame.Err != nil && frame.Attempt < attempt {
				continue // failure of an attempt already abandoned
			}
			c.tr.Instant(obs.CatCtl, "complete", seq, c.clk.Now(), 0)
			if frame.Err != nil {
				return frame.Err
			}
			// Success from any attempt completes the operation — a late
			// Complete of an earlier attempt means the work is durable.
			completed = true
		default:
			return fmt.Errorf("core: client %d: unexpected message type %d", c.Rank(), t)
		}
	}
}

// completeDests lists the group members this client relays a completion
// frame to: its children in the control tree over the group, rooted at
// the leader — every other member when it leads a flat group, while on
// topology schedules interior members forward, so the outcome reaches
// every rank in O(log n) hops instead of serializing at the leader's
// egress port.
func (c *Client) completeDests() []int {
	return controlChildren(c.cfg, c.groupSize(), c.groupRank, nil, c.comm.Rank())
}

// pieceID identifies one piece of one array for duplicate detection. A
// comparable struct rather than a formatted string: the hot loops check
// one per received piece, and Sprintf allocated every time. Each
// dimension packs its [lo, hi) pair into one uint64 (wire coordinates
// are u32, so the packing is collision-free); the rare rank beyond the
// fixed array spills into a formatted tail.
type pieceID struct {
	arrayIdx int
	rank     int
	dims     [4]uint64
	tail     string // dims beyond len(dims); "" in practice
}

// pieceKey builds the duplicate-detection key for one piece.
func pieceKey(arrayIdx int, reg array.Region) pieceID {
	id := pieceID{arrayIdx: arrayIdx, rank: reg.Rank()}
	for d := 0; d < reg.Rank(); d++ {
		if d < len(id.dims) {
			id.dims[d] = uint64(uint32(reg.Lo[d]))<<32 | uint64(uint32(reg.Hi[d]))
		} else {
			id.tail += fmt.Sprintf(",%d:%d", reg.Lo[d], reg.Hi[d])
		}
	}
	return id
}

// serveRequest answers one sub-chunk request during a write: extract
// the requested region from the local chunk and send it back. With
// natural chunking the region is contiguous in the local buffer and the
// extraction is free; otherwise the strided gather is charged as
// reorganization.
func (c *Client) serveRequest(o *collectiveOp, server int, q subReq) error {
	if q.ArrayIdx < 0 || q.ArrayIdx >= len(o.specs) {
		return fmt.Errorf("core: client %d: request for array %d of %d", c.Rank(), q.ArrayIdx, len(o.specs))
	}
	seq, spec, chunk, buf := o.seq, o.specs[q.ArrayIdx], o.chunks[q.ArrayIdx], o.bufs[q.ArrayIdx]
	if !chunk.Contains(q.Region) {
		return fmt.Errorf("core: client %d: request %v outside chunk %v", c.Rank(), q.Region, chunk)
	}

	var t0 time.Duration
	if c.tr.Enabled() {
		t0 = c.clk.Now()
	}
	d := subData{ArrayIdx: q.ArrayIdx, ReqID: q.ReqID, Region: q.Region}
	n := q.Region.NumElems() * int64(spec.ElemSize)
	if off, contig := array.ContiguousIn(chunk, q.Region); contig {
		// Contiguous fast path: the payload is a view of the
		// application's buffer; sendVec ships it without a frame copy on
		// scatter-gather transports.
		start := off * int64(spec.ElemSize)
		c.chargeContig(n)
		c.sendVec(server, tagToServer(seq), encodeSubDataHeader(d, 0), buf[start:start+n])
	} else {
		c.sendPacked(seq, server, tagToServer(seq), d, buf, chunk, spec.ElemSize)
	}
	if c.tr.Enabled() {
		c.tr.Span(obs.CatNet, "serve piece", seq, t0, c.clk.Now(), n)
	}
	return nil
}

// absorbData deposits one received piece into the local chunk during a
// read.
func (c *Client) absorbData(o *collectiveOp, d subData) error {
	if d.ArrayIdx < 0 || d.ArrayIdx >= len(o.specs) {
		return fmt.Errorf("core: client %d: data for array %d of %d", c.Rank(), d.ArrayIdx, len(o.specs))
	}
	spec, chunk := o.specs[d.ArrayIdx], o.chunks[d.ArrayIdx]
	if !chunk.Contains(d.Region) {
		return fmt.Errorf("core: client %d: data %v outside chunk %v", c.Rank(), d.Region, chunk)
	}
	want := d.Region.NumElems() * int64(spec.ElemSize)
	if int64(len(d.Payload)) != want {
		return fmt.Errorf("core: client %d: piece %v carries %d bytes, want %d", c.Rank(), d.Region, len(d.Payload), want)
	}
	_, contig := array.ContiguousIn(chunk, d.Region)
	pk0 := c.met.packStart()
	array.CopyRegion(o.bufs[d.ArrayIdx], chunk, d.Payload, d.Region, d.Region, spec.ElemSize)
	c.met.packDone(pk0)
	if contig {
		c.chargeContig(want)
	} else {
		c.chargeReorg(o.seq, want)
	}
	return nil
}

// postedOps is a client's posted operations (mpi.Placer), reads and
// writes alike, by sequence number: the one table, fence and set of
// checks for both directions. Its endpoint offers it the head of every
// frame it could place — a dialed endpoint's reader the head of every
// large frame, an in-process server every piece it sends and every pull
// it would send. A piece of a posted read that lies contiguous in the
// application's chunk is written straight into its place there, where
// absorbData would have copied it out of a pooled frame. A pull of a
// posted write for a piece contiguous in the chunk is answered by the
// piece's window there, which the in-process server copies straight into
// its sub-chunk: the pull and the reply serveRequest would have framed
// are never sent. Anything it cannot place — a frame of no posted op, a
// piece strided in the chunk, a malformed one — takes the pooled path,
// whose outcome is absorbData's or serveRequest's. In process several
// servers place into, or copy out of, one op at once, so Place and
// Placed work under mu.
type postedOps struct {
	comm mpi.Comm      // the endpoint, cut when a dialed placement stalls
	wait time.Duration // how long unpost waits out a placement: Config.OpTimeout
	// lends is set on an in-process endpoint, whose senders copy a pull's
	// answer out of the window they are granted. A dialed reader writes
	// every window it is granted, so a write's chunk is never one there.
	lends bool

	mu    sync.Mutex
	ended sync.Cond   // a placement ended; L is &mu
	space regionSpace // Place's region bounds
	ops   map[int]*collectiveOp
}

// post makes op o placeable; start calls it right after binding the op's
// mailbox, so every frame it places has an op to go to.
func (p *postedOps) post(o *collectiveOp) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ops == nil {
		p.ops = make(map[int]*collectiveOp)
		p.ended.L = &p.mu
	}
	p.ops[o.seq] = o
	o.posted = p
}

// unpost is the fence: op o takes no new placement, and unpost returns
// only once none of its placements is in progress, so no byte lands in
// the application's array after a read hands it back, and no server
// reads it after a write does. An in-process placement is a bounded copy
// on its sender's goroutine and is waited out. A dialed frame stalled
// mid-payload holds up every frame behind it on the stream anyway, so a
// placement still in progress wait after the op ended gets the
// endpoint's connection cut: the reader's read fails, which ends the
// placement. With wait 0 it waits, as the op did.
func (p *postedOps) unpost(o *collectiveOp) {
	p.mu.Lock()
	defer p.mu.Unlock()
	o.unposted = true
	if o.placing > 0 && p.wait > 0 {
		cut := time.AfterFunc(p.wait, func() { mpi.CloseComm(p.comm) }) //nolint:errcheck // the reader's read fails
		defer cut.Stop()
	}
	for o.placing > 0 {
		p.ended.Wait()
	}
	delete(p.ops, o.seq)
}

// Place implements mpi.Placer. A sub-data head of a posted read is
// granted its payload's place in the chunk; a pull head of a posted
// write, offered with n counting the pull and the piece's bytes, is
// granted the piece's window in the chunk (in process only). Either way
// the piece is one absorbData or serveRequest would accept, and lies
// contiguous in the chunk.
func (p *postedOps) Place(source, tag int, head []byte, n int) (int, []byte) {
	seq, family, ok := tagOpSeq(tag)
	r := rbuf{b: head}
	if !ok || family != 1 {
		return 0, nil
	}
	op := opRead
	switch kind := r.u8(); {
	case kind == msgSubReq && p.lends:
		op = opWrite
	case kind != msgSubData:
		return 0, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	q, err := decodeSubReq(&r, &p.space) // a sub-data header is a pull's under another type
	reg := q.Region
	if err != nil || reg.IsEmpty() {
		return 0, nil // a header past the head, or no bytes to place
	}
	o := p.ops[seq]
	if o == nil || o.op != op || o.unposted || q.ArrayIdx >= len(o.specs) {
		return 0, nil
	}
	spec, chunk, buf := o.specs[q.ArrayIdx], o.chunks[q.ArrayIdx], o.bufs[q.ArrayIdx]
	want := reg.NumElems() * int64(spec.ElemSize)
	if !chunk.Contains(reg) || int64(n-r.off) != want {
		return 0, nil
	}
	off, contig := array.ContiguousIn(chunk, reg)
	if !contig {
		return 0, nil
	}
	o.placing++
	start := off * int64(spec.ElemSize)
	return r.off, buf[start : start+want]
}

// Placed implements mpi.Placer.
func (p *postedOps) Placed(tag int) {
	seq, _, _ := tagOpSeq(tag)
	p.mu.Lock()
	defer p.mu.Unlock()
	o := p.ops[seq]
	if o.placing--; o.placing == 0 {
		p.ended.Broadcast()
	}
}
