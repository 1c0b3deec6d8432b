package core

import (
	"fmt"
	"sort"
	"time"

	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/obs"
	"panda/internal/storage"
)

// diskSched serializes a node's bulk disk traffic onto one storage
// activity shared by every in-flight operation. Requests arriving close
// together — typically from different executors — are drained as one
// batch; adjacent writes inside a batch are merged into a single
// WriteAt, which is the scheduler's cross-op disk optimization: two
// interleaved collectives touching neighbouring file ranges cost one
// seek instead of two.
//
// The activity owns its own rebound Disk and every data-path file
// handle, so on the simulated clock all disk time is charged to one
// proc — executor clocks never touch media. Metadata (manifests,
// decision records, renames) stays on the executors' rebound disks.

// mergeCap bounds a merged write: past this, batching gains nothing and
// the copy cost dominates.
const mergeCap = 8 << 20

const (
	dCreate = iota // name -> reply.f
	dOpen          // name, want -> reply.f (size-checked)
	dWrite         // f, buf, off, recycle -> reply.err
	dRead          // f, buf, off -> reply.err (buf filled in place)
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
	recycle []byte // dWrite: the pooled slice backing buf (wbItem)
	reply   mbox[diskReply]
}

type diskReply struct {
	f   storage.File
	err error
}

type diskSched struct {
	box mbox[diskReq]
}

// newDiskSched starts the storage activity for one server node.
func newDiskSched(dom clock.Domain, s *Server) *diskSched {
	d := &diskSched{box: newMbox[diskReq](s.clk)}
	tr := s.cfg.Trace.Track(fmt.Sprintf("server%d/disk", s.index))
	dom.Go(fmt.Sprintf("server%d-disk", s.index), func(clk clock.Clock) {
		dd := storage.RebindClock(s.disk, clk)
		for {
			first, err := d.box.pop(clk, nil, 0)
			if err != nil {
				return // closed
			}
			batch := append([]diskReq{first}, d.box.drain()...)
			if !s.runDiskBatch(dd, clk, tr, batch) {
				return
			}
		}
	})
	return d
}

// stop shuts the activity down after it finishes the current batch.
func (d *diskSched) stop() { d.box.put(diskReq{kind: dStop}) }

// rpc submits one request and waits for its reply.
func (d *diskSched) rpc(clk clock.Clock, req diskReq) diskReply {
	req.reply = newMbox[diskReply](clk)
	d.box.put(req)
	rep, err := req.reply.pop(clk, nil, 0)
	if err != nil {
		return diskReply{err: err}
	}
	return rep
}

// runDiskBatch executes one drained batch in three phases: opens (they
// gate executors starting work), writes (grouped by file, sorted by
// offset, adjacent runs merged), then reads/syncs/closes in arrival
// order. A sink's Sync/Close is always issued after its writes'
// replies, so it lands in a later batch than the writes it follows.
// Returns false when the batch contained dStop.
func (s *Server) runDiskBatch(dd storage.Disk, clk clock.Clock, tr obs.Track, batch []diskReq) bool {
	alive := true
	var files []storage.File
	writes := make(map[storage.File][]diskReq)
	var rest []diskReq
	for _, req := range batch {
		switch req.kind {
		case dCreate:
			f, err := dd.Create(req.name)
			req.reply.put(diskReply{f: f, err: err})
		case dOpen:
			f, err := s.openForRead(dd, req.name, req.want)
			req.reply.put(diskReply{f: f, err: err})
		case dWrite:
			if len(writes[req.f]) == 0 {
				files = append(files, req.f)
			}
			writes[req.f] = append(writes[req.f], req)
		case dStop:
			alive = false
		default:
			rest = append(rest, req)
		}
	}
	for _, f := range files {
		s.flushWrites(f, writes[f], clk, tr)
	}
	for _, req := range rest {
		var t0 time.Duration
		if tr.Enabled() {
			t0 = clk.Now()
		}
		var err error
		switch req.kind {
		case dRead:
			_, err = req.f.ReadAt(req.buf, req.off)
			if tr.Enabled() {
				tr.Span(obs.CatDisk, "ReadAt", req.seq, t0, clk.Now(), int64(len(req.buf)))
			}
		case dSync:
			err = req.f.Sync()
		case dClose:
			err = req.f.Close()
		}
		req.reply.put(diskReply{err: err})
	}
	return alive
}

// flushWrites issues one file's writes from a batch, merging adjacent
// runs into single WriteAt calls.
func (s *Server) flushWrites(f storage.File, reqs []diskReq, clk clock.Clock, tr obs.Track) {
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].off < reqs[j].off })
	for i := 0; i < len(reqs); {
		// Extend the run while the next write starts exactly where this
		// one ends and the merged buffer stays under mergeCap.
		j := i + 1
		total := int64(len(reqs[i].buf))
		for j < len(reqs) &&
			reqs[j].off == reqs[j-1].off+int64(len(reqs[j-1].buf)) &&
			total+int64(len(reqs[j].buf)) <= mergeCap {
			total += int64(len(reqs[j].buf))
			j++
		}
		run := reqs[i:j]
		var t0 time.Duration
		if tr.Enabled() {
			t0 = clk.Now()
		}
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
			s.node[cDiskMerges].Add(int64(len(run) - 1))
		}
		if tr.Enabled() {
			tr.Span(obs.CatDisk, "WriteAt", run[0].seq, t0, clk.Now(), total)
		}
		for _, req := range run {
			bufpool.Put(req.recycle)
			req.reply.put(diskReply{err: err})
		}
		i = j
	}
}

// --- executor-facing sink/source -----------------------------------------

// schedWriteSink routes an executor's writes through the shared
// diskSched with a bounded in-flight window, so concurrent ops batch at
// the storage activity without any op running unboundedly ahead of the
// disk.
type schedWriteSink struct {
	ds      *diskSched
	clk     clock.Clock
	f       storage.File
	replies mbox[diskReply]
	seq     int
	out     int // outstanding writes
	window  int
	err     error // first write error; sticky
}

func (s *Server) newSchedWriteSink(name string) (writeSink, error) {
	k := &schedWriteSink{
		ds:      s.dsched,
		clk:     s.clk,
		replies: newMbox[diskReply](s.clk),
		seq:     s.opSeq,
		window:  s.cfg.pipeline(),
	}
	if k.window < 2 {
		k.window = 2
	}
	rep := s.dsched.rpc(s.clk, diskReq{kind: dCreate, seq: s.opSeq, name: name})
	if rep.err != nil {
		return nil, rep.err
	}
	k.f = rep.f
	return k, nil
}

func (k *schedWriteSink) reap() {
	rep, perr := k.replies.pop(k.clk, nil, 0)
	k.out--
	if k.err == nil {
		if perr != nil {
			k.err = perr
		} else {
			k.err = rep.err
		}
	}
}

func (k *schedWriteSink) write(buf []byte, off int64, recycle []byte) error {
	if k.err != nil {
		bufpool.Put(recycle)
		return k.err
	}
	for k.out >= k.window {
		k.reap()
	}
	k.ds.box.put(diskReq{kind: dWrite, seq: k.seq, f: k.f, buf: buf, off: off, recycle: recycle, reply: k.replies})
	k.out++
	return nil
}

func (k *schedWriteSink) finish() error {
	for k.out > 0 {
		k.reap()
	}
	if rep := k.ds.rpc(k.clk, diskReq{kind: dSync, seq: k.seq, f: k.f}); k.err == nil {
		k.err = rep.err
	}
	if rep := k.ds.rpc(k.clk, diskReq{kind: dClose, seq: k.seq, f: k.f}); k.err == nil {
		k.err = rep.err
	}
	return k.err
}

func (k *schedWriteSink) abandon() {
	for k.out > 0 {
		k.reap()
	}
	k.ds.rpc(k.clk, diskReq{kind: dClose, seq: k.seq, f: k.f})
}

func (k *schedWriteSink) report() (int64, int64) { return 0, 0 }

// schedReadSource reads through the shared diskSched, one sub-chunk at
// a time: read-ahead across ops comes from the batch drain, not from
// per-op prefetch depth.
type schedReadSource struct {
	ds  *diskSched
	clk clock.Clock
	f   storage.File
	seq int
}

func (s *Server) newSchedReadSource(name string, want int64) (readSource, error) {
	rep := s.dsched.rpc(s.clk, diskReq{kind: dOpen, seq: s.opSeq, name: name, want: want})
	if rep.err != nil {
		return nil, rep.err
	}
	return &schedReadSource{ds: s.dsched, clk: s.clk, f: rep.f, seq: s.opSeq}, nil
}

func (k *schedReadSource) next(sj subchunkJob) ([]byte, error) {
	buf := bufpool.GetRaw(int(sj.Bytes))
	rep := k.ds.rpc(k.clk, diskReq{kind: dRead, seq: k.seq, f: k.f, buf: buf, off: sj.FileOffset})
	if rep.err != nil {
		bufpool.Put(buf)
		return nil, rep.err
	}
	return buf, nil
}

func (k *schedReadSource) finish() error {
	k.ds.rpc(k.clk, diskReq{kind: dClose, seq: k.seq, f: k.f})
	return nil
}

func (k *schedReadSource) abandon() {
	k.ds.rpc(k.clk, diskReq{kind: dClose, seq: k.seq, f: k.f})
}

func (k *schedReadSource) report() (int64, int64) { return 0, 0 }
