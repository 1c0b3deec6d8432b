package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/obs"
	"panda/internal/storage"
)

// The staged server engine.
//
// A server's share of one collective operation is a three-stage
// pipeline:
//
//	planner  — assignChunks/planSubchunks (pure math, runs inline);
//	mover    — the network stage: pulls pieces from clients (writes) or
//	           scatters them (reads), and owns all deadline, retry and
//	           abort handling. The mover runs on the server's main
//	           process because the communicator endpoint is bound to it.
//	storage  — the disk stage: a per-operation writer or reader that
//	           issues strictly in-order WriteAt/ReadAt calls from its
//	           own concurrent activity (goroutine under the wall clock,
//	           simulated process under vtime), preserving the paper's
//	           sequential-file guarantee while overlapping disk time
//	           with network time.
//
// The stages are connected by a bounded SPSC pipe from the clock
// domain, so the same engine code runs identically — and, under vtime,
// deterministically — in real and simulated deployments. With
// Pipeline <= 1 and ReadAhead == 0 (the paper's configuration) the
// storage stage is not spawned at all: writes and reads run the
// original strictly serial path, byte-for-byte reproducing the paper's
// timings.
//
// Failure model across the stage boundary: the mover keeps exclusive
// ownership of deadlines, retries and aborts (PR 1's semantics are
// unchanged). A storage-stage error raises a stop flag the mover
// observes on its next hand-off; a mover abort raises the same flag so
// the storage stage discards queued work. Either way the mover joins
// the storage stage before returning, so an operation never leaks a
// concurrent activity, and the first error in pipeline order wins.
//
// Observability: disk spans land on the "serverN/storage" track (a
// separate Chrome thread under the server's process), stall spans on
// the mover's own track, so a trace viewer shows overlap directly as
// concurrent disk and network spans. Stall spans shorter than 1µs are
// suppressed — a real-clock hand-off through an unfull pipe costs
// nanoseconds and is not a stall.

// stallSpanFloor filters hand-off noise out of stall spans; the stall
// *counters* still accumulate every nanosecond.
const stallSpanFloor = time.Microsecond

// stageResult is what the storage stage reports back when it drains:
// its outcome and the time it spent inside disk calls.
type stageResult struct {
	err       error
	diskNanos int64
}

// wbItem is one completed sub-chunk travelling mover → storage during a
// write. recycle is the pooled slice that backs buf — buf itself when
// the sub-chunk was assembled, the wire frame when its payload was
// adopted — returned to bufpool once the write is done with it.
type wbItem struct {
	buf     []byte
	off     int64
	recycle []byte
}

// rdItem is one prefetched sub-chunk travelling storage → mover during
// a read. The buffer is always pooled.
type rdItem struct {
	buf []byte
}

// errStorageStopped reports that the storage stage ended before the
// mover expected it to — it carries no cause; join for the real error.
var errStorageStopped = errors.New("core: storage stage stopped early")

// writeSink absorbs completed sub-chunks in plan order; write owns
// recycle (always a pooled slice: bufpool.Put counts anything else as a
// drop) and hands it to bufpool.Put when buf is dead, written or not.
// Exactly one of finish (success path: sync, close, surface storage
// errors) or abandon (mover failed: discard queued work, still join)
// must be called.
type writeSink interface {
	write(buf []byte, off int64, recycle []byte) error
	finish() error
	abandon()
	report() (diskNanos, stallNanos int64)
}

// readSource produces sub-chunks in plan order. Exactly one of finish
// or abandon must be called.
type readSource interface {
	next(sj subchunkJob) ([]byte, error)
	finish() error
	abandon()
	report() (diskNanos, stallNanos int64)
}

// mergeStage folds a completed stage's accounting into the server
// stats: the disk time the pipeline hid is what the storage stage spent
// on disk beyond the mover's waits for it.
func (s *Server) mergeStage(diskNanos, stallNanos int64) {
	s.cnt[cStallNanos].Add(stallNanos)
	if hidden := diskNanos - stallNanos; hidden > 0 {
		s.cnt[cOverlapNanos].Add(hidden)
	}
}

// storageTrack resolves the disk-stage trace track for this server:
// same Chrome process as the mover, its own thread.
func (s *Server) storageTrack() obs.Track {
	return s.cfg.Trace.Track(fmt.Sprintf("server%d/storage", s.index))
}

// --- write path ---------------------------------------------------------

// newWriteSink picks the write-behind engine when the configuration and
// clock allow overlap, and the paper's inline writer otherwise.
func (s *Server) newWriteSink(name string) (writeSink, error) {
	if s.dsched != nil {
		// Scheduler executors share the node's storage activity so
		// concurrent ops batch and merge at the disk (disksched.go).
		return s.newSchedWriteSink(name)
	}
	if dom, ok := s.clk.(clock.Domain); ok && s.cfg.pipeline() >= 2 {
		return s.newStagedWriteSink(dom, name), nil
	}
	f, err := s.disk.Create(name)
	if err != nil {
		return nil, err
	}
	return &serialWriteSink{f: f, clk: s.clk, tr: s.storageTrack(), seq: s.opSeq}, nil
}

// serialWriteSink is the paper's behaviour: WriteAt inline on the mover.
// Disk spans still land on the storage track so serial and staged
// traces line up column-for-column.
type serialWriteSink struct {
	f   storage.File
	clk clock.Clock
	tr  obs.Track
	seq int
}

func (k *serialWriteSink) write(buf []byte, off int64, recycle []byte) error {
	var t0 time.Duration
	if k.tr.Enabled() {
		t0 = k.clk.Now()
	}
	_, err := k.f.WriteAt(buf, off)
	if k.tr.Enabled() {
		k.tr.Span(obs.CatDisk, "WriteAt", k.seq, t0, k.clk.Now(), int64(len(buf)))
	}
	bufpool.Put(recycle)
	return err
}

func (k *serialWriteSink) finish() error {
	err := k.f.Sync()
	if cerr := k.f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (k *serialWriteSink) abandon() { k.f.Close() }

func (k *serialWriteSink) report() (int64, int64) { return 0, 0 }

// stagedWriteSink hands sub-chunks to a storage-stage activity through a
// bounded pipe and writes behind the network.
type stagedWriteSink struct {
	clk    clock.Clock // the mover's clock: stalls are charged to it
	tr     obs.Track   // the mover's track: stall spans land here
	seq    int
	depth  atomic.Int64 // queued sub-chunks (mover pushes, stage pops)
	met    *obs.Histogram
	pipe   clock.Pipe
	done   clock.Pipe
	stop   *atomic.Bool
	stall  int64
	joined bool
	res    stageResult
}

func (s *Server) newStagedWriteSink(dom clock.Domain, name string) *stagedWriteSink {
	k := &stagedWriteSink{
		clk:  s.clk,
		tr:   s.tr,
		seq:  s.opSeq,
		met:  s.met.queueDepth,
		pipe: dom.NewPipe(s.cfg.pipeline()),
		done: dom.NewPipe(1),
		stop: new(atomic.Bool),
	}
	disk := s.disk
	str := s.storageTrack()
	seq := s.opSeq
	dom.Go(fmt.Sprintf("server%d-writer", s.index), func(clk clock.Clock) {
		d := storage.RebindClock(disk, clk)
		var diskNanos int64
		f, err := d.Create(name)
		if err != nil {
			k.stop.Store(true)
		}
		for {
			v, ok := k.pipe.Pop()
			if !ok {
				break
			}
			k.depth.Add(-1)
			it := v.(wbItem)
			if err == nil && !k.stop.Load() {
				t0 := clk.Now()
				if _, werr := f.WriteAt(it.buf, it.off); werr != nil {
					err = werr
					k.stop.Store(true)
				}
				t1 := clk.Now()
				diskNanos += int64(t1 - t0)
				str.Span(obs.CatDisk, "WriteAt", seq, t0, t1, int64(len(it.buf)))
			}
			bufpool.Put(it.recycle)
		}
		if f != nil {
			if err == nil && !k.stop.Load() {
				err = f.Sync()
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		k.done.Push(stageResult{err: err, diskNanos: diskNanos})
	})
	return k
}

func (k *stagedWriteSink) join() {
	if k.joined {
		return
	}
	k.joined = true
	k.pipe.Close()
	t0 := k.clk.Now()
	v, ok := k.done.Pop()
	t1 := k.clk.Now()
	k.stall += int64(t1 - t0)
	if t1-t0 >= stallSpanFloor {
		k.tr.Span(obs.CatStall, "join storage", k.seq, t0, t1, 0)
	}
	if ok {
		k.res = v.(stageResult)
	} else {
		k.res = stageResult{err: errStorageStopped}
	}
}

func (k *stagedWriteSink) write(buf []byte, off int64, recycle []byte) error {
	if k.stop.Load() {
		// The storage stage failed; surface its error instead of
		// queueing work it will discard.
		bufpool.Put(recycle)
		k.join()
		if k.res.err != nil {
			return k.res.err
		}
		return errStorageStopped
	}
	k.met.Observe(k.depth.Add(1))
	t0 := k.clk.Now()
	k.pipe.Push(wbItem{buf: buf, off: off, recycle: recycle})
	t1 := k.clk.Now()
	k.stall += int64(t1 - t0)
	if t1-t0 >= stallSpanFloor {
		k.tr.Span(obs.CatStall, "write-behind full", k.seq, t0, t1, int64(len(buf)))
	}
	return nil
}

func (k *stagedWriteSink) finish() error {
	k.join()
	return k.res.err
}

func (k *stagedWriteSink) abandon() {
	k.stop.Store(true) // queued sub-chunks are discarded, not written
	k.join()
}

func (k *stagedWriteSink) report() (int64, int64) { return k.res.diskNanos, k.stall }

// --- read path ----------------------------------------------------------

// newReadSource picks the read-ahead engine when the configuration and
// clock allow overlap, and the paper's inline reader otherwise.
func (s *Server) newReadSource(spec ArraySpec, name string, subs []subchunkJob, want int64) (readSource, error) {
	if s.dsched != nil {
		return s.newSchedReadSource(name, want)
	}
	if dom, ok := s.clk.(clock.Domain); ok && s.cfg.readAhead() >= 1 {
		return s.newStagedReadSource(dom, spec, name, subs, want), nil
	}
	f, err := s.openForRead(s.disk, name, want)
	if err != nil {
		return nil, err
	}
	return &serialReadSource{f: f, clk: s.clk, tr: s.storageTrack(), seq: s.opSeq}, nil
}

// openForRead opens the array file and checks it holds this server's
// share — want bytes, schema-derived for legacy files and taken from
// the manifest for committed epochs (whose degraded layout may differ
// from the schema's round-robin assignment).
func (s *Server) openForRead(d storage.Disk, name string, want int64) (storage.File, error) {
	f, err := d.Open(name)
	if err != nil {
		return nil, err
	}
	if sz, serr := f.Size(); serr != nil {
		f.Close()
		return nil, serr
	} else if sz < want {
		f.Close()
		return nil, fmt.Errorf("file %s holds %d bytes, schema needs %d", name, sz, want)
	}
	return f, nil
}

// serialReadSource is the paper's behaviour: ReadAt inline on the mover.
type serialReadSource struct {
	f   storage.File
	clk clock.Clock
	tr  obs.Track
	seq int
}

func (k *serialReadSource) next(sj subchunkJob) ([]byte, error) {
	buf := bufpool.GetRaw(int(sj.Bytes))
	var t0 time.Duration
	if k.tr.Enabled() {
		t0 = k.clk.Now()
	}
	if _, err := k.f.ReadAt(buf, sj.FileOffset); err != nil {
		bufpool.Put(buf)
		return nil, err
	}
	if k.tr.Enabled() {
		k.tr.Span(obs.CatDisk, "ReadAt", k.seq, t0, k.clk.Now(), sj.Bytes)
	}
	return buf, nil
}

func (k *serialReadSource) finish() error { k.f.Close(); return nil }

func (k *serialReadSource) abandon() { k.f.Close() }

func (k *serialReadSource) report() (int64, int64) { return 0, 0 }

// stagedReadSource prefetches up to ReadAhead sub-chunks beyond the one
// the mover is scattering. File access stays strictly sequential: one
// storage activity issues the ReadAt calls in plan order.
type stagedReadSource struct {
	clk    clock.Clock
	tr     obs.Track
	seq    int
	depth  atomic.Int64
	met    *obs.Histogram
	pipe   clock.Pipe
	done   clock.Pipe
	stop   *atomic.Bool
	stall  int64
	joined bool
	res    stageResult
}

func (s *Server) newStagedReadSource(dom clock.Domain, spec ArraySpec, name string, subs []subchunkJob, want int64) *stagedReadSource {
	k := &stagedReadSource{
		clk:  s.clk,
		tr:   s.tr,
		seq:  s.opSeq,
		met:  s.met.queueDepth,
		pipe: dom.NewPipe(s.cfg.readAhead()),
		done: dom.NewPipe(1),
		stop: new(atomic.Bool),
	}
	disk := s.disk
	srv := s
	str := s.storageTrack()
	seq := s.opSeq
	dom.Go(fmt.Sprintf("server%d-reader", s.index), func(clk clock.Clock) {
		d := storage.RebindClock(disk, clk)
		var diskNanos int64
		f, err := srv.openForRead(d, name, want)
		if err == nil {
			for _, sj := range subs {
				if k.stop.Load() {
					break
				}
				buf := bufpool.GetRaw(int(sj.Bytes))
				t0 := clk.Now()
				_, rerr := f.ReadAt(buf, sj.FileOffset)
				t1 := clk.Now()
				diskNanos += int64(t1 - t0)
				if rerr != nil {
					bufpool.Put(buf)
					err = rerr
					break
				}
				str.Span(obs.CatDisk, "ReadAt", seq, t0, t1, sj.Bytes)
				k.met.Observe(k.depth.Add(1))
				k.pipe.Push(rdItem{buf: buf})
			}
			f.Close()
		}
		k.pipe.Close()
		k.done.Push(stageResult{err: err, diskNanos: diskNanos})
	})
	return k
}

func (k *stagedReadSource) next(sj subchunkJob) ([]byte, error) {
	t0 := k.clk.Now()
	v, ok := k.pipe.Pop()
	t1 := k.clk.Now()
	k.stall += int64(t1 - t0)
	if t1-t0 >= stallSpanFloor {
		k.tr.Span(obs.CatStall, "prefetch wait", k.seq, t0, t1, sj.Bytes)
	}
	if !ok {
		// Producer ended before delivering this sub-chunk: join and
		// surface its error.
		k.join()
		if k.res.err != nil {
			return nil, k.res.err
		}
		return nil, errStorageStopped
	}
	k.depth.Add(-1)
	return v.(rdItem).buf, nil
}

func (k *stagedReadSource) join() {
	if k.joined {
		return
	}
	k.joined = true
	k.stop.Store(true)
	for {
		v, ok := k.pipe.Pop()
		if !ok {
			break
		}
		bufpool.Put(v.(rdItem).buf)
	}
	t0 := k.clk.Now()
	v, ok := k.done.Pop()
	t1 := k.clk.Now()
	k.stall += int64(t1 - t0)
	if t1-t0 >= stallSpanFloor {
		k.tr.Span(obs.CatStall, "join storage", k.seq, t0, t1, 0)
	}
	if ok {
		k.res = v.(stageResult)
	} else {
		k.res = stageResult{err: errStorageStopped}
	}
}

func (k *stagedReadSource) finish() error {
	k.join()
	return k.res.err
}

func (k *stagedReadSource) abandon() { k.join() }

func (k *stagedReadSource) report() (int64, int64) { return k.res.diskNanos, k.stall }
