package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/obs"
	"panda/internal/queue"
	"panda/internal/storage"
)

// diskSched is a node's storage stage: one activity that serves the bulk
// disk traffic of every operation on the node (engine.go; only a
// zero-copy read bypasses it). Requests arriving close together are
// drained as one batch; when a batch holds writes to more than one file,
// adjacent writes to the same file are merged into a single WriteAt,
// which is the cross-op disk optimization: two interleaved collectives
// cost one seek per run instead of one per sub-chunk. A batch that
// writes a single file is already sequential, so merging it would buy a
// memcpy and no seek (and move a lone op's simulated time by the
// rounding of one larger AIXModel request): its writes are issued as
// submitted.
//
// The activity owns its own rebound Disk and every data-path file
// handle, so on the simulated clock all disk time is charged to one
// proc — mover clocks never touch media. Metadata (manifests, decision
// records, renames) stays on the movers' own disks.

// mergeCap bounds a merged write: past this, batching gains nothing and
// the copy cost dominates.
const mergeCap = 8 << 20

const (
	dCreate = iota // name -> reply.f
	dReuse         // name, want -> reply.f: name as it stands if it holds want bytes, else created
	dOpen          // name, want -> reply.f (size-checked)
	dWrite         // f, buf, off, recycle -> reply.err
	dRead          // f, buf, off -> reply.buf (filled in place), reply.err
	dSync          // f -> reply.err
	dClose         // f -> reply.err
	dStop          // shut the activity down
)

type diskReq struct {
	kind    int
	seq     int // operation sequence, for trace spans
	name    string
	want    int64
	f       storage.File
	buf     []byte
	off     int64
	recycle []byte // dWrite: the pooled slice backing buf, Put once written
	reply   *queue.Q[diskReply]
}

// diskReply answers one request. nanos is the time the activity spent
// serving it, on the activity's clock; a merged run charges its first
// request and none of the others.
type diskReply struct {
	f     storage.File
	buf   []byte // dRead: the request's buffer back, so the source keeps no list
	err   error
	nanos int64
}

type diskSched struct {
	box *queue.Q[diskReq]

	// The activity's batch scratch, kept from batch to batch so a
	// steady-state batch allocates nothing: the drained requests, the
	// files the batch writes (in first-write order) with each one's
	// writes, and the requests served after the writes.
	batch []diskReq
	files []storage.File
	runs  [][]diskReq // runs[i] holds files[i]'s writes
	rest  []diskReq
}

// newDiskSched starts the storage activity for one server node.
func newDiskSched(s *Server) *diskSched {
	d := &diskSched{box: queue.New[diskReq](s.clk)}
	// Disk spans get a track of their own: same Chrome process as the
	// movers, its own thread.
	tr := s.cfg.Trace.Track(fmt.Sprintf("server%d/storage", s.index))
	s.clk.Go(fmt.Sprintf("server%d-storage", s.index), func(clk clock.Clock) {
		dd := storage.RebindClock(s.disk, clk)
		for {
			first, _ := d.box.Pop(clk, nil, nil, 0) // unbounded: cannot time out
			d.batch = d.box.Drain(append(d.batch[:0], first))
			alive := s.runDiskBatch(d, dd, clk, tr)
			clear(d.batch) // served: the scratch must not pin buffers or files
			if !alive {
				return
			}
		}
	})
	return d
}

// stop shuts the activity down after it finishes the current batch.
func (d *diskSched) stop() { d.box.Put(diskReq{kind: dStop}) }

// runDiskBatch executes the drained batch d.batch in three phases: opens
// (they gate movers starting work), writes (grouped by file, sorted by
// offset), then reads/syncs/closes in arrival order. A sink's
// Sync/Close is always issued after its writes' replies, so it lands in
// a later batch than the writes it follows. Returns false when the
// batch contained dStop.
func (s *Server) runDiskBatch(d *diskSched, dd storage.Disk, clk clock.Clock, tr obs.Track) bool {
	alive := true
	d.files, d.rest = d.files[:0], d.rest[:0]
	for _, req := range d.batch {
		switch req.kind {
		case dCreate, dReuse, dOpen:
			s.serveDiskReq(dd, clk, tr, req)
		case dWrite:
			i := slices.Index(d.files, req.f)
			if i < 0 {
				i = len(d.files)
				d.files = append(d.files, req.f)
				if i == len(d.runs) {
					d.runs = append(d.runs, nil)
				}
				d.runs[i] = d.runs[i][:0]
			}
			d.runs[i] = append(d.runs[i], req)
		case dStop:
			alive = false
		default:
			d.rest = append(d.rest, req)
		}
	}
	for i, f := range d.files {
		s.flushWrites(f, d.runs[i], len(d.files) > 1, clk, tr)
		clear(d.runs[i])
	}
	for _, req := range d.rest {
		s.serveDiskReq(dd, clk, tr, req)
	}
	clear(d.files)
	clear(d.rest)
	return alive
}

// serveDiskReq executes one non-write request and answers it.
func (s *Server) serveDiskReq(dd storage.Disk, clk clock.Clock, tr obs.Track, req diskReq) {
	rep := diskReply{buf: req.buf}
	t0 := clk.Now()
	switch req.kind {
	case dCreate:
		rep.f, rep.err = dd.Create(req.name)
	case dReuse:
		rep.f, rep.err = reuseOrCreate(dd, req.name, req.want)
	case dOpen:
		rep.f, rep.err = s.openForRead(dd, req.name, req.want)
	case dRead:
		_, rep.err = req.f.ReadAt(req.buf, req.off)
	case dSync:
		rep.err = req.f.Sync()
	case dClose:
		rep.err = req.f.Close()
	}
	t1 := clk.Now()
	if req.kind == dRead {
		tr.Span(obs.CatDisk, "ReadAt", req.seq, t0, t1, int64(len(req.buf)))
	}
	rep.nanos = int64(t1 - t0)
	req.reply.Put(rep)
}

// reuseOrCreate opens name to be overwritten in place when it holds
// exactly want bytes, the whole of what the write will cover, and
// creates (truncates) it otherwise — a degraded write or a new
// deployment shape changes a server's share — so the file never ends
// larger than its manifest's TotalBytes.
func reuseOrCreate(d storage.Disk, name string, want int64) (storage.File, error) {
	if f, err := d.Open(name); err == nil {
		if sz, serr := f.Size(); serr == nil && sz == want {
			return f, nil
		}
		f.Close()
	}
	return d.Create(name)
}

// flushWrites issues one file's writes from a batch in offset order,
// merging adjacent runs into single WriteAt calls when merge is set.
func (s *Server) flushWrites(f storage.File, reqs []diskReq, merge bool, clk clock.Clock, tr obs.Track) {
	slices.SortStableFunc(reqs, func(a, b diskReq) int { return cmp.Compare(a.off, b.off) })
	for i := 0; i < len(reqs); {
		// Extend the run while the next write starts exactly where this
		// one ends and the merged buffer stays under mergeCap.
		j := i + 1
		total := int64(len(reqs[i].buf))
		for merge && j < len(reqs) &&
			reqs[j].off == reqs[j-1].off+int64(len(reqs[j-1].buf)) &&
			total+int64(len(reqs[j].buf)) <= mergeCap {
			total += int64(len(reqs[j].buf))
			j++
		}
		run := reqs[i:j]
		t0 := clk.Now()
		var err error
		if len(run) == 1 {
			_, err = f.WriteAt(run[0].buf, run[0].off)
		} else {
			merged := bufpool.GetRaw(int(total))
			n := 0
			for _, req := range run {
				n += copy(merged[n:], req.buf)
			}
			_, err = f.WriteAt(merged, run[0].off)
			bufpool.Put(merged)
			s.total[cDiskMerges].Add(int64(len(run) - 1))
		}
		t1 := clk.Now()
		tr.Span(obs.CatDisk, "WriteAt", run[0].seq, t0, t1, total)
		rep := diskReply{err: err, nanos: int64(t1 - t0)}
		for _, req := range run {
			bufpool.Put(req.recycle)
			req.reply.Put(rep)
			rep.nanos = 0
		}
		i = j
	}
}

// --- mover-facing sink/source ---------------------------------------------

// stagePort is one open file's view of the storage activity, from the
// mover's side: a window of submitted requests whose replies come back
// on one mailbox, and the two clocks' accounts of it — disk is what the
// activity spent serving this port, stall what the mover spent waiting
// for it. Synchronous requests (create, open, sync, close) use the same
// mailbox, so the window must be drained before one is made.
type stagePort struct {
	ds      *diskSched
	clk     clock.Clock    // the mover's clock: stalls are charged to it
	tr      obs.Track      // the mover's track: stall spans land here
	depth   *obs.Histogram // window occupancy at every hand-off
	seq     int
	f       storage.File
	replies *queue.Q[diskReply]
	out     int // requests submitted and not yet reaped
	disk    int64
	stall   int64
}

// newStagePort opens the mover's port. A mover has one port open at a
// time and a port is drained before it closes, so every port of a mover
// uses the same reply mailbox, its executor's.
func (s *Server) newStagePort() stagePort {
	return stagePort{ds: s.dsched, clk: s.clk, tr: s.tr, depth: s.met.queueDepth, seq: s.opSeq, replies: s.replies}
}

func (p *stagePort) submit(req diskReq) {
	req.seq, req.f, req.reply = p.seq, p.f, p.replies
	p.ds.box.Put(req)
	p.out++
}

// reap waits for the next reply. The caller times the wait (stalled).
func (p *stagePort) reap() diskReply {
	rep, _ := p.replies.Pop(p.clk, nil, nil, 0) // unbounded: cannot time out
	p.out--
	p.disk += rep.nanos
	return rep
}

// call runs one request synchronously; nothing may be outstanding.
func (p *stagePort) call(req diskReq) diskReply {
	p.submit(req)
	return p.reap()
}

// stalled charges the mover's wait since t0 to the port.
func (p *stagePort) stalled(t0 time.Duration, what string, bytes int64) {
	t1 := p.clk.Now()
	p.stall += int64(t1 - t0)
	if t1-t0 >= stallSpanFloor {
		p.tr.Span(obs.CatStall, what, p.seq, t0, t1, bytes)
	}
}

func (p *stagePort) report() (int64, int64) { return p.disk, p.stall }

// schedWriteSink absorbs completed sub-chunks in plan order through the
// storage activity, with at most window writes outstanding: 0 waits for
// each write before the mover pulls on (the paper's loop), 2 or more
// write behind the mover, so concurrent ops batch at the disk without
// any op running unboundedly ahead of it. write owns recycle (always a
// pooled slice: bufpool.Put counts anything else as a drop) and the
// activity puts it back once buf is written. Exactly one of finish
// (success path: sync, close, surface storage errors) or abandon (mover
// failed: still wait out queued work) must be called.
type schedWriteSink struct {
	stagePort
	window int
	err    error // first write error; sticky
}

// newWriteSink opens name through the storage stage: created, or with
// reuse a recycled file overwritten in place when it holds the want
// bytes the write covers. The window is zero unless operations may
// overlap (so they batch and merge at the disk) or the mover is asked
// to write behind.
func (s *Server) newWriteSink(name string, reuse bool, want int64) (*schedWriteSink, error) {
	k := &schedWriteSink{stagePort: s.newStagePort()}
	if s.cfg.Sched.enabled() || s.cfg.pipeline() >= 2 {
		k.window = max(2, s.cfg.pipeline())
	}
	req := diskReq{kind: dCreate, name: name}
	if reuse {
		req.kind, req.want = dReuse, want
	}
	t0 := k.clk.Now()
	rep := k.call(req)
	k.stalled(t0, "create", 0)
	if rep.err != nil {
		return nil, rep.err
	}
	k.f = rep.f
	return k, nil
}

// drain reaps replies until at most keep writes are outstanding.
func (k *schedWriteSink) drain(keep int) {
	for k.out > keep {
		if rep := k.reap(); k.err == nil {
			k.err = rep.err
		}
	}
}

func (k *schedWriteSink) write(buf []byte, off int64, recycle []byte) error {
	k.depth.Observe(int64(k.out + 1))
	if k.window > 0 && k.out >= k.window {
		t0 := k.clk.Now()
		k.drain(k.window - 1)
		k.stalled(t0, "write-behind full", int64(len(buf)))
	}
	if k.err != nil {
		bufpool.Put(recycle)
		return k.err
	}
	k.submit(diskReq{kind: dWrite, buf: buf, off: off, recycle: recycle})
	if k.window == 0 {
		t0 := k.clk.Now()
		k.drain(0)
		k.stalled(t0, "write", int64(len(buf)))
	}
	return k.err
}

// join waits out the window, then runs the closing calls.
func (k *schedWriteSink) join(kinds ...int) {
	t0 := k.clk.Now()
	k.drain(0)
	for _, kind := range kinds {
		if rep := k.call(diskReq{kind: kind}); k.err == nil {
			k.err = rep.err
		}
	}
	k.stalled(t0, "join storage", 0)
}

func (k *schedWriteSink) finish() error {
	k.join(dSync, dClose)
	return k.err
}

func (k *schedWriteSink) abandon() { k.join(dClose) }

// schedReadSource reads through the storage activity, keeping ahead
// reads outstanding beyond the sub-chunk the mover is about to scatter.
// File access stays in plan order: reads are submitted in that order and
// the activity serves a file's reads as they arrive.
type schedReadSource struct {
	stagePort
	subs   []subchunkJob
	issued int // subs[:issued] have been submitted
	ahead  int
}

func (s *Server) newSchedReadSource(name string, subs []subchunkJob, want int64) (readSource, error) {
	k := &schedReadSource{stagePort: s.newStagePort(), subs: subs, ahead: s.cfg.readAhead()}
	t0 := k.clk.Now()
	rep := k.call(diskReq{kind: dOpen, name: name, want: want})
	k.stalled(t0, "open", 0)
	if rep.err != nil {
		return nil, rep.err
	}
	k.f = rep.f
	return k, nil
}

func (k *schedReadSource) next(sj subchunkJob) ([]byte, error) {
	for k.issued < len(k.subs) && k.out <= k.ahead {
		nx := k.subs[k.issued]
		k.issued++
		k.submit(diskReq{kind: dRead, buf: bufpool.GetRaw(int(nx.Bytes)), off: nx.FileOffset})
	}
	k.depth.Observe(int64(k.out))
	t0 := k.clk.Now()
	rep := k.reap()
	k.stalled(t0, "prefetch wait", sj.Bytes)
	if rep.err != nil {
		bufpool.Put(rep.buf)
		return nil, rep.err
	}
	return rep.buf, nil
}

// finish returns every prefetched buffer the mover never took to the
// pool and closes the file.
func (k *schedReadSource) finish() error {
	t0 := k.clk.Now()
	for k.out > 0 {
		bufpool.Put(k.reap().buf)
	}
	k.call(diskReq{kind: dClose})
	k.stalled(t0, "join storage", 0)
	return nil
}

func (k *schedReadSource) abandon() { k.finish() }
