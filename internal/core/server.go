package core

import (
	"errors"
	"fmt"
	"time"

	"panda/internal/array"
	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/obs"
	"panda/internal/queue"
	"panda/internal/storage"
)

// Server is a Panda server: the code that runs on one I/O node. It
// owns that node's file system and directs the data flow of every
// collective operation (server-directed I/O).
type Server struct {
	node // ranks is the executing request's session membership

	disk  storage.Disk
	index int // server index in [0, NumServers)

	nextReqID uint32
	opSeq     int   // sequence of the operation being handled
	opBytes   int64 // payload bytes this server moved in the current operation

	// total is this node's counter block (what Stats reports). node.cnt
	// is the block instrumentation points add to: the current
	// operation's private block inside handleOp — chained to total — and
	// total itself between operations.
	total *counters

	// tenant is the scheduler tenant of the operation an executor copy
	// (one per in-flight op, see sched.go) is running.
	tenant string
	// dsched is the node's storage stage (disksched.go), shared by every
	// executor: started by Serve, stopped when it returns.
	dsched *diskSched
	// replies is where dsched answers this executor (one stagePort open
	// at a time, see disksched.go).
	replies *queue.Q[diskReply]

	// curAttempt and curRound identify the request currently executing,
	// for stale-frame filtering inside the operation. curDeads is that
	// request's dead-server list — the member-set complement every rank
	// needs to derive the same control-broadcast tree locally.
	curAttempt, curRound uint16
	curDeads             []int

	// plans memoizes schema-derived sub-chunk plans (see planFor): one
	// cache per node, shared with every executor built from this Server.
	plans *planCache
	// retained is the node's record of the keys whose ".prev" the next
	// write may recycle (commit.go), shared like plans.
	retained *retainedSet
}

// NewServer creates the server for one I/O node. disk is that node's
// file system and clk its clock.
func NewServer(cfg Config, comm mpi.Comm, disk storage.Disk, clk clock.Clock) *Server {
	idx := cfg.ServerIndex(comm.Rank())
	total := newNodeCounters(cfg.Metrics)
	return &Server{
		node: node{
			cfg:  cfg,
			comm: asEndpoint(comm),
			clk:  clk,
			tr:   cfg.Trace.Track(fmt.Sprintf("server%d", idx)),
			met:  newNodeMetrics(cfg.Metrics),
			cnt:  total,
		},
		disk:     disk,
		index:    idx,
		total:    total,
		plans:    &planCache{},
		retained: &retainedSet{},
	}
}

// Stats returns a race-clean snapshot of the server's traffic
// counters; safe to call from any goroutine, even mid-operation.
func (s *Server) Stats() Stats { return s.total.snapshot() }

// IsMaster reports whether this is the master server.
func (s *Server) IsMaster() bool { return s.comm.Rank() == s.cfg.MasterServer() }

// recvIdle is the router's wait for its next frame: a wake-up every
// OpTimeout, or one unbounded wait without deadlines — which still comes
// back as ErrPeerLost, not a panic, when the node's own link dies. A
// fixed-shape deployment whose master client the transport has declared
// dead can receive neither work nor an orderly shutdown, so it gives up
// once busy reports nothing in hand. (A resident service has no master
// client whose death could orphan it; sessions come and go by design.)
func (s *Server) recvIdle(busy func() bool) (mpi.Message, error) {
	for {
		m, err := s.comm.RecvTimeout(mpi.AnySource, mpi.AnyTag, s.cfg.OpTimeout)
		if err == nil {
			return m, nil
		}
		if !errors.Is(err, mpi.ErrTimeout) {
			return mpi.Message{}, mapTransportErr(err)
		}
		if !s.cfg.Service && !busy() && s.comm.PeerLost(s.cfg.MasterClient()) {
			return mpi.Message{}, fmt.Errorf("master client gone while idle: %w", ErrPeerLost)
		}
	}
}

// sendFile ships hdr followed by n bytes of the array file from off as
// one message, through the zero-copy arm's transport: from the page
// cache straight to a socket, or one pooled copy into a mailbox in this
// process. hdr must come from bufpool and is recycled here. A file that
// ended inside the range — truncated or replaced under the server after
// its size was checked — fails the operation as ErrCorrupt; the frame
// itself went out whole, so the link is fine.
func (s *Server) sendFile(src *fileSource, to, tag int, hdr []byte, off, n int64) error {
	s.countSend(len(hdr) + int(n))
	zc, err := src.fc.SendFile(to, tag, hdr, src.hf, off, int(n))
	bufpool.Put(hdr)
	if zc {
		s.cnt[cFramesCoalesced].Add(1)
		s.cnt[cZeroCopyBytes].Add(n)
	}
	if errors.Is(err, mpi.ErrShortFile) {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return err
}

// handleOp runs one collective operation end to end on this server.
// req is raw already decoded (the router decodes it to admit it). A
// non-nil return is fatal: an injected crash killed the server.
func (s *Server) handleOp(raw []byte, req opRequest) (fatal error) {
	opStart := s.clk.Now()
	s.opBytes = 0
	// Everything this operation counts lands in its own block (and, by
	// chaining, in the node's), so the summary attributes counters
	// exactly even with other operations in flight on this node.
	s.cnt = newOpCounters(s.total)
	defer func() { s.cnt = s.total }()
	var finalErr error
	logged := false
	logOp := func() {
		if logged || s.cfg.OpLog == nil {
			return
		}
		logged = true
		s.cfg.OpLog(OpSummary{
			Server:  s.index,
			Seq:     s.opSeq,
			Op:      opName(req.Op),
			Bytes:   s.opBytes,
			Elapsed: s.clk.Now() - opStart,
			Err:     finalErr,
			Tenant:  s.tenant,
			Stats:   s.cnt.snapshot(),
		})
	}
	defer func() {
		if s.tr.Enabled() {
			s.tr.Span(obs.CatOp, opName(req.Op), s.opSeq, opStart, s.clk.Now(), s.opBytes)
		}
		logOp()
	}()
	// complete is the master's last act: the outcome goes to the master
	// client. The summary is logged first, with the completion frame
	// already counted in it — once that frame has left, the client's call
	// can return and look the operation up (the daemon's /sessions)
	// before a log deferred to this function's return has run.
	complete := func(attempt, round uint16, opErr error) {
		frame := encodeStatus(msgComplete, attempt, round, opErr)
		s.countSend(len(frame))
		finalErr = opErr
		logOp()
		s.comm.SendOwned(s.groupRank(0), tagToClient(s.opSeq), frame)
	}

	deadline := opDeadline(s.cfg, s.clk)

	if s.IsMaster() {
		// Charge Panda's fixed startup cost (paper: ~13 ms measured
		// on the SP2), resolve the epochs the operation runs against,
		// and forward the (re-encoded) request to the other servers.
		if s.cfg.StartupOverhead > 0 {
			s.clk.Sleep(s.cfg.StartupOverhead)
		}
		restamped := s.stampLost(&req)
		if !s.cfg.PlainWrites {
			if err := s.resolveEpochs(&req); err != nil {
				// No other server has seen the request: the operation ends
				// here, with nothing planned, staged or renamed anywhere.
				complete(req.Attempt, req.Round, err)
				return nil
			}
			restamped = true
		}
		if restamped {
			raw = encodeOpRequest(req)
			defer bufpool.Put(raw) // forwarded by copy
		}
	}
	// Relay the request down the control tree before executing, so the
	// broadcast completes in depth rounds without the master touching
	// every rank (on flat schedules the tree is the master's star).
	if kids := s.serverTreeChildren(deadSet(req.Deads)); s.IsMaster() || len(kids) > 0 {
		s.tr.Instant(obs.CatCtl, "forward request", s.opSeq, s.clk.Now(), int64(len(raw)))
		s.fanoutRaw(kids, tagControl, raw)
	}

	err := validateSpecsN(s.cfg, s.groupSize(), req.Specs)

	// Crash-consistent writes take the two-phase-commit path, which owns
	// its own completion exchange (Prepared/Commit/Committed in place of
	// Done). Reads, plain-mode writes and invalid requests take the
	// path below.
	if err == nil && req.Op == opWrite && !s.cfg.PlainWrites {
		finalErr = s.runCommitWrite(req, deadline)
		if errors.Is(finalErr, errServerCrashed) {
			return finalErr
		}
		if s.IsMaster() {
			complete(s.curAttempt, s.curRound, finalErr)
		}
		return nil
	}

	if err == nil {
		err = s.execute(req, deadline)
	}

	if !s.IsMaster() {
		finalErr = err
		s.send(s.cfg.MasterServer(), tagDoneFor(s.opSeq), encodeStatus(msgDone, req.Attempt, req.Round, err))
		return nil
	}

	// Master server: collect Done from every other server, aggregate
	// the first failure, and inform the master client.
	gone, late, status := s.collect(msgDone, req, deadline, err, false)
	if late {
		s.cnt[cTimeouts].Add(1)
	} else if len(gone) > 0 && status == nil {
		// Everyone silent is confirmed dead, not merely late. A read of a
		// degraded file set completes without them: their chunks were
		// reassigned at write time, so the survivors served all the data.
		// A plain write has lost whatever they owned.
		if req.Op == opRead {
			s.cnt[cDegraded].Add(1)
			s.tr.Instant(obs.CatRecover, "read completed degraded", s.opSeq, s.clk.Now(), 0)
		} else {
			status = fmt.Errorf("core: master server: servers %v died mid-write: %w", gone, ErrPeerLost)
		}
	}
	if status != nil && deadline > 0 {
		// Unstick any server still pulling; one that already finished
		// never reads the abort's (by then stale) tag — harmless.
		s.abortOp(req, status, nil)
	}
	complete(req.Attempt, req.Round, status)
	return nil
}

// execute performs this server's share of a Done-path operation —
// reads and plain-mode writes — every array in order, every chunk in
// file order, every sub-chunk sequentially. deadline (0 = none) bounds
// the whole operation.
func (s *Server) execute(req opRequest, deadline time.Duration) error {
	for ai, spec := range req.Specs {
		var err error
		switch req.Op {
		case opWrite:
			err = s.plainWriteArray(req, ai, spec, deadline)
		case opRead:
			err = s.readResolved(req, ai, spec, deadline)
		default:
			err = fmt.Errorf("core: unknown operation %d", req.Op)
		}
		if err != nil {
			return fmt.Errorf("core: server %d, array %s: %w", s.index, spec.Name, err)
		}
	}
	return nil
}

// planArray derives this server's chunk assignment and sub-chunk plan
// for one array — through the plan cache when it applies — charging the
// plan span and the operation's byte account. dead lists servers whose
// chunks are reassigned across the survivors (nil for a full house).
func (s *Server) planArray(ai int, spec ArraySpec, dead map[int]bool) ([]Placement, []subchunkJob) {
	var p0 time.Duration
	if s.tr.Enabled() {
		p0 = s.clk.Now()
	}
	jobs, subs, planned := s.planFor(ai, spec, dead)
	s.opBytes += planned
	if s.tr.Enabled() {
		s.tr.Span(obs.CatPlan, "plan "+spec.Name, s.opSeq, p0, s.clk.Now(), planned)
	}
	return jobs, subs
}

// planManifest resolves the plan for reading the file manifest m
// describes (planForManifest), charging the plan span and the
// operation's byte account as planArray does.
func (s *Server) planManifest(ai int, spec ArraySpec, m *storage.Manifest) ([]subchunkJob, error) {
	var p0 time.Duration
	if s.tr.Enabled() {
		p0 = s.clk.Now()
	}
	subs, planned, err := s.planForManifest(ai, spec, m)
	if err != nil {
		return nil, err
	}
	s.opBytes += planned
	if s.tr.Enabled() {
		s.tr.Span(obs.CatPlan, "plan "+spec.Name, s.opSeq, p0, s.clk.Now(), planned)
	}
	return subs, nil
}

// plainWriteArray is the pre-manifest write path (Config.PlainWrites):
// straight to the final file name, no epoch, no manifest, no commit. An
// overwrite of the same share opens the file and overwrites it in place
// (reuseOrCreate), so it frees no blocks the next write would allocate
// again; a changed share truncates it.
func (s *Server) plainWriteArray(req opRequest, ai int, spec ArraySpec, deadline time.Duration) error {
	_, subs := s.planArray(ai, spec, nil)
	return s.writeArray(spec, spec.FileName(req.Suffix, s.index), true, subs, deadline, nil)
}

// readResolved serves one array of a collective read from whatever this
// server's committed state holds for the decided epoch (resolveRead) —
// or, under PlainWrites, from the file as it stands.
func (s *Server) readResolved(req opRequest, ai int, spec ArraySpec, deadline time.Duration) error {
	c := Committed{Name: spec.FileName(req.Suffix, s.index)}
	if !s.cfg.PlainWrites {
		var err error
		if c, err = s.resolveRead(req, ai, spec, c.Name); err != nil || c.Name == "" {
			return err // or nothing to serve at the decided epoch
		}
	}
	m := c.Manifest
	if m == nil {
		_, subs := s.planArray(ai, spec, nil)
		return s.readArray(spec, c.Name, subs, deadline, planBytes(subs))
	}
	if s.cfg.VerifyOnRestart {
		var v0 time.Duration
		if s.tr.Enabled() {
			v0 = s.clk.Now()
		}
		if verr := storage.VerifyData(s.disk, c.Name, m); verr != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, verr)
		}
		if s.tr.Enabled() {
			s.tr.Span(obs.CatRecover, "verify "+c.Name, s.opSeq, v0, s.clk.Now(), m.TotalBytes)
		}
	}
	subs, err := s.planManifest(ai, spec, m)
	if err != nil {
		return fmt.Errorf("manifest of %s: %w", c.Name, err)
	}
	return s.readArray(spec, c.Name, subs, deadline, m.TotalBytes)
}

// resolveRead maps one array onto what this server must serve for the
// decided epoch (storage.RollForward, checked as ResolveCommitted
// checks): the committed file under its manifest, a legacy
// manifest-less file, the retained previous epoch, an interrupted
// commit it finishes first — or nothing, when its state predates the
// decided epoch (a revived server whose chunks the survivors carry).
func (s *Server) resolveRead(req opRequest, ai int, spec ArraySpec, base string) (Committed, error) {
	epoch := req.Epochs[ai] // a decoded request carries one per array
	sc, err := storage.RollForward(s.disk, base, epoch)
	c, err := committed(Committed(sc), err, spec, base, epoch)
	if err != nil {
		return c, fmt.Errorf("core: server %d: %w", s.index, err)
	}
	if c.Pending {
		s.cnt[cRollForwards].Add(1)
		s.tr.Instant(obs.CatRecover, "roll-forward "+base, s.opSeq, s.clk.Now(), c.Manifest.TotalBytes)
	}
	if c.Stale != 0 {
		s.tr.Instant(obs.CatRecover, fmt.Sprintf("stale epoch %d (decided %d): serving nothing", c.Stale, epoch), s.opSeq, s.clk.Now(), 0)
	}
	return c, nil
}

// pending is one slot of the pull window: a sub-chunk being assembled
// from client pieces. got has a bit per entry of job.Pieces, set when
// that piece is deposited, so duplicate deliveries (a faulty transport,
// or a retried pull whose original reply was merely slow) are deposited
// exactly once.
type pending struct {
	id        uint32 // the request ID its pulls carry
	job       subchunkJob
	buf       []byte
	recycle   []byte // pooled slice backing buf: buf itself (assembled) or the adopted wire frame
	remaining int
	got       []uint64
	hint      int           // where find starts: replies tend to arrive in request order
	start     time.Duration // when the first request went out (tracing/metrics only)
}

// find returns the index in job.Pieces of the piece covering exactly
// reg, or -1.
func (p *pending) find(reg array.Region) int {
	n := len(p.job.Pieces)
	for k := 0; k < n; k++ {
		if i := (p.hint + k) % n; p.job.Pieces[i].Region.Equal(reg) {
			p.hint = i + 1
			return i
		}
	}
	return -1
}

func (p *pending) has(i int) bool { return p.got[i/64]&(1<<(i%64)) != 0 }
func (p *pending) mark(i int)     { p.got[i/64] |= 1 << (i % 64) }

// writeArray gathers this server's sub-chunks of one array from the
// clients and writes them with strictly sequential file writes. Up to
// cfg.Pipeline sub-chunks are kept in flight; completed sub-chunks are
// written in plan order so the file access pattern stays sequential
// regardless of reply interleaving.
//
// With a deadline, pulls are retried: if no reply arrives for a quiet
// period (OpTimeout spread evenly over PullRetries+1 attempts), every
// missing piece of every in-flight sub-chunk is requested again. Pulls
// are idempotent — clients re-extract from their buffers and the got
// map drops duplicates — so retries mask transient message loss
// without corrupting the file. Stale replies (for sub-chunks already
// retired, or already-seen pieces) are ignored, not errors.
func (s *Server) writeArray(spec ArraySpec, name string, reuse bool, subs []subchunkJob, deadline time.Duration, mb *manifestBuilder) error {
	if len(subs) == 0 {
		return nil // this server owns no data of this array
	}
	sink, err := s.newWriteSink(name, reuse, planBytes(subs))
	if err != nil {
		return err
	}
	if err := s.pullSubchunks(spec, subs, deadline, sink, mb); err != nil {
		sink.abandon()
		s.mergeStage(sink.report())
		return err
	}
	err = sink.finish()
	s.mergeStage(sink.report())
	return err
}

// pullSubchunks is the write mover: it keeps up to cfg.Pipeline
// sub-chunk pulls in flight and retires completed sub-chunks to the
// sink strictly in plan order. mb, when non-nil, collects each retired
// sub-chunk's extent and CRC32C for the epoch manifest.
func (s *Server) pullSubchunks(spec ArraySpec, subs []subchunkJob, deadline time.Duration, sink *schedWriteSink, mb *manifestBuilder) error {
	// The window is a ring of slots made once per array: sub-chunk k
	// (in plan order) is pulled under request ID first+k into slot
	// k%window, so subs[written:next] are in flight, the oldest first.
	window := s.cfg.pipeline()
	words := 1
	for _, sj := range subs {
		words = max(words, (len(sj.Pieces)+63)/64)
	}
	slots, bits := make([]pending, window), make([]uint64, window*words)
	first := s.nextReqID + 1
	s.nextReqID += uint32(len(subs))
	next, written := 0, 0
	measured := s.tr.Enabled() || s.met.subLatency != nil
	var space regionSpace

	quiet := time.Duration(0)
	if deadline > 0 {
		quiet = s.cfg.OpTimeout / time.Duration(s.cfg.PullRetries+1)
	}
	retriesLeft := s.cfg.PullRetries
	place := mpi.PlaceRoute(s.comm)

	for {
		// Retire completed sub-chunks strictly in plan order.
		for written < next && slots[written%window].remaining == 0 {
			pend := &slots[written%window]
			if measured {
				end := s.clk.Now()
				s.tr.Span(obs.CatNet, "pull sub-chunk", s.opSeq, pend.start, end, pend.job.Bytes)
				s.met.subLatency.Observe(int64(end - pend.start))
			}
			if mb != nil {
				mb.addSub(pend.job.FileOffset, pend.job.Bytes, storage.CRC32C(pend.buf))
			}
			if werr := sink.write(pend.buf, pend.job.FileOffset, pend.recycle); werr != nil {
				return werr
			}
			pend.buf, pend.recycle = nil, nil // the sink's now
			written++
			if written == 1 {
				if cerr := s.crashPoint("pull"); cerr != nil {
					return cerr
				}
			}
		}
		if written == len(subs) {
			return nil
		}

		for next < len(subs) && next-written < window {
			k := next % window
			sj := subs[next]
			pend := &slots[k]
			*pend = pending{id: first + uint32(next), job: sj, remaining: len(sj.Pieces), got: bits[k*words : (k+1)*words]}
			clear(pend.got)
			next++
			if measured {
				pend.start = s.clk.Now()
			}
			for i := range sj.Pieces {
				s.pull(spec, pend, i, place)
			}
		}
		if slots[written%window].remaining == 0 {
			continue // every piece of the oldest was borrowed: nothing to wait for
		}

		wait := deadline // the quiet period, when it ends first
		if quiet > 0 && s.clk.Now()+quiet < deadline {
			wait = s.clk.Now() + quiet
		}
		m, rerr := s.recv(tagToServer(s.opSeq), wait)
		if rerr != nil {
			if errors.Is(rerr, ErrTimeout) && retriesLeft > 0 && s.clk.Now() < deadline {
				// Quiet period expired with budget to spare: re-request
				// every piece not yet received.
				retriesLeft--
				for k := written; k < next; k++ {
					pend := &slots[k%window]
					for i := range pend.job.Pieces {
						if !pend.has(i) {
							s.cnt[cRetries].Add(1)
							s.pull(spec, pend, i, place)
						}
					}
				}
				continue
			}
			s.cnt[cTimeouts].Add(1)
			return rerr
		}
		switch kind, verr := s.verdict(m); kind {
		case vStale:
			continue
		case vAbort, vReplan:
			return verr
		case vCommit:
			return errors.New("commit verdict for a round still pulling")
		}
		r := rbuf{b: m.Data}
		switch t := r.u8(); t {
		case msgSubData:
			d, derr := decodeSubData(&r, &space)
			if derr != nil {
				return derr
			}
			k := int(d.ReqID - first)
			if k < written || k >= next {
				bufpool.Put(m.Data)
				continue // reply for a retired sub-chunk: stale duplicate
			}
			pend := &slots[k%window]
			i := pend.find(d.Region)
			if i < 0 {
				return fmt.Errorf("piece %v is no piece of sub-chunk %v", d.Region, pend.job.Region)
			}
			if pend.has(i) {
				bufpool.Put(m.Data)
				continue // duplicate delivery of a piece already deposited
			}
			if want := d.Region.NumElems() * int64(spec.ElemSize); int64(len(d.Payload)) != want {
				return fmt.Errorf("piece %v carries %d bytes, want %d", d.Region, len(d.Payload), want)
			}
			if pend.buf == nil && len(pend.job.Pieces) == 1 && d.Region.Equal(pend.job.Region) {
				// The whole sub-chunk came from one client in traditional
				// order already: adopt the payload, no copy at all.
				pend.buf, pend.recycle = d.Payload, m.Data // the sink recycles the frame after the write
				s.chargeContig(int64(len(d.Payload)))
			} else {
				s.depositPiece(spec, pend, d.Region, d.Payload)
				bufpool.Put(m.Data) // payload copied out; recycle the frame
			}
			pend.mark(i)
			pend.remaining--
		default:
			return fmt.Errorf("expected sub-chunk data, got message type %d", t)
		}
	}
}

// pull asks the client holding piece i of pend for it. In process
// (place, from mpi.PlaceRoute) it first offers the pull to the client's
// posted write: when that names the piece's window in the client's chunk,
// the piece is copied straight out of it into the sub-chunk — borrowed:
// marked, and neither the pull nor its reply is sent.
func (s *Server) pull(spec ArraySpec, pend *pending, i int, place mpi.PlaceComm) {
	pc := pend.job.Pieces[i]
	to, tag := s.groupRank(pc.Client), tagToClient(s.opSeq)
	hdr := encodeSubReq(subReq{ArrayIdx: pend.job.ArrayIdx, ReqID: pend.id, Region: pc.Region})
	if place != nil {
		if r := place.Reserve(to, tag, hdr, int(pc.Region.NumElems())*spec.ElemSize); r.Dst != nil {
			bufpool.Put(hdr)
			s.depositPiece(spec, pend, pc.Region, r.Dst)
			place.Release(r)
			s.cnt[cZeroCopyBytes].Add(int64(len(r.Dst)))
			pend.mark(i)
			pend.remaining--
			return
		}
	}
	s.send(to, tag, hdr)
}

// depositPiece copies one piece, region reg of payload, into the
// sub-chunk under assembly, charging reorganization cost for
// non-contiguous layouts. The sub-chunk's buffer is not zeroed: the
// plan's pieces tile it, and it reaches the sink only once every piece
// is in.
func (s *Server) depositPiece(spec ArraySpec, pend *pending, reg array.Region, payload []byte) {
	sub := pend.job.Region
	if pend.buf == nil {
		pend.buf = bufpool.GetRaw(int(pend.job.Bytes))
		pend.recycle = pend.buf
	}
	_, contig := array.ContiguousIn(sub, reg)
	t0 := s.met.packStart()
	array.CopyRegion(pend.buf, sub, payload, reg, reg, spec.ElemSize)
	s.met.packDone(t0)
	if contig {
		s.chargeContig(int64(len(payload)))
	} else {
		s.chargeReorg(s.opSeq, int64(len(payload)))
	}
}

// readArray reads this server's sub-chunks of one array sequentially
// and scatters each piece to the client that needs it. deadline (0 =
// none) bounds the operation: between sub-chunks the server checks its
// budget and drains any abort broadcast, so a read cannot grind on
// after the master has declared the operation dead.
func (s *Server) readArray(spec ArraySpec, name string, subs []subchunkJob, deadline time.Duration, want int64) error {
	if len(subs) == 0 {
		return nil
	}
	src, err := s.newReadSource(name, subs, want)
	if err != nil {
		return err
	}
	if err := s.scatterSubchunks(spec, subs, deadline, src); err != nil {
		src.abandon()
		s.mergeStage(src.report())
		return err
	}
	err = src.finish()
	s.mergeStage(src.report())
	return err
}

// scatterSubchunks is the read mover: it takes sub-chunks from the
// source in plan order and scatters each piece to the client that
// needs it — from the file itself when the source is the zero-copy arm.
func (s *Server) scatterSubchunks(spec ArraySpec, subs []subchunkJob, deadline time.Duration, src readSource) error {
	fs, _ := src.(*fileSource)
	measured := s.tr.Enabled() || s.met.subLatency != nil
	for _, sj := range subs {
		if err := s.checkReadInterrupt(deadline); err != nil {
			return err
		}
		var t0 time.Duration
		if measured {
			t0 = s.clk.Now()
		}
		buf, err := src.next(sj)
		if err != nil {
			return err
		}
		var n0 time.Duration
		if s.tr.Enabled() {
			n0 = s.clk.Now()
		}
		for _, pc := range sj.Pieces {
			n := pc.Region.NumElems() * int64(spec.ElemSize)
			d := subData{ArrayIdx: sj.ArrayIdx, Region: pc.Region}
			to, tag := s.groupRank(pc.Client), tagToClient(s.opSeq)
			off, contig := array.ContiguousIn(sj.Region, pc.Region)
			if !contig {
				s.sendGathered(s.opSeq, to, tag, d, buf, sj.Region, spec.ElemSize)
				continue
			}
			// Scatter-gather send: the header is built alone and the
			// payload travels as a borrowed segment — no flattening copy
			// on transports with a vector path — or as a file range.
			start := off * int64(spec.ElemSize)
			s.chargeContig(n)
			hdr := encodeSubDataHeader(d, 0)
			if fs != nil {
				if err := s.sendFile(fs, to, tag, hdr, sj.FileOffset+start, n); err != nil {
					return err
				}
				continue
			}
			s.sendVec(to, tag, hdr, buf[start:start+n])
		}
		if measured {
			end := s.clk.Now()
			s.tr.Span(obs.CatNet, "scatter sub-chunk", s.opSeq, n0, end, sj.Bytes)
			s.met.subLatency.Observe(int64(end - t0))
		}
		if buf != nil {
			bufpool.Put(buf)
		}
	}
	return nil
}

// checkReadInterrupt enforces the operation deadline during reads and
// drains any abort broadcast queued on this operation's server tag.
// Reads have no blocking receives of their own, so without this a
// server would keep scattering its whole plan — and an abort frame
// would sit queued forever — after the master declared the operation
// dead.
func (s *Server) checkReadInterrupt(deadline time.Duration) error {
	if deadline <= 0 {
		return nil
	}
	if s.clk.Now() >= deadline {
		s.cnt[cTimeouts].Add(1)
		return ErrTimeout
	}
	m, err := s.comm.RecvTimeout(mpi.AnySource, tagToServer(s.opSeq), time.Nanosecond)
	if err != nil {
		return nil // nothing queued; transport failures surface elsewhere
	}
	s.countRecv(len(m.Data))
	switch kind, verr := s.verdict(m); kind {
	case vStale:
		return nil
	case vAbort:
		return verr
	}
	r := rbuf{b: m.Data}
	return fmt.Errorf("expected abort, got message type %d during read", r.u8())
}
