package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"panda/internal/array"
	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/obs"
	"panda/internal/queue"
	"panda/internal/storage"
	"panda/internal/vtime"
)

// engine_test.go covers the server engine's storage stage: disk/network
// overlap under virtual time when the knobs open its window, the paper's
// serial timings when they leave it at zero, strict file sequentiality
// at every window, and the failure model (deadlines, aborts, storage
// errors, pooled buffers) across the stage boundary.

// diskTrace records every call a server's disk served, in issue order,
// shared across every Rebind view of the disk.
type diskTrace struct {
	mu     sync.Mutex
	events []traceEvent
}

type traceEvent struct {
	op   byte // 'r' ReadAt, 'w' WriteAt, 's' Sync, 'c' Create, 'o' Open, 'x' Remove, 'm' Rename, 'l' List
	name string
	off  int64
	n    int // bytes; for a Rename, 1 when it replaced a file
}

func (tr *diskTrace) add(op byte, name string, off int64, n int) {
	tr.mu.Lock()
	tr.events = append(tr.events, traceEvent{op: op, name: name, off: off, n: n})
	tr.mu.Unlock()
}

// assertSequential fails unless, per file and access kind, every access
// starts exactly where the previous one ended — the paper's
// strictly-sequential file access guarantee, which the storage stage
// must preserve.
func (tr *diskTrace) assertSequential(t *testing.T, server int) {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.events) == 0 {
		t.Errorf("server %d: disk trace is empty", server)
		return
	}
	next := make(map[string]int64)
	for _, e := range tr.events {
		key := fmt.Sprintf("%c:%s", e.op, e.name)
		if want, seen := next[key]; seen && e.off != want {
			t.Errorf("server %d: %c %s at offset %d, want %d (non-sequential access)",
				server, e.op, e.name, e.off, want)
			return
		}
		next[key] = e.off + int64(e.n)
	}
}

// traceDisk wraps a Disk and logs accesses into a shared trace. It
// implements storage.Rebinder so the storage activity keeps both the
// trace and the inner disk's clock accounting. Its files are
// interposers: every read must reach the trace, so traceFile has no
// Unwrap and hides the host file.
type traceDisk struct {
	inner storage.Disk
	trace *diskTrace
}

func (d *traceDisk) Create(name string) (storage.File, error) {
	d.trace.add('c', name, 0, 0)
	f, err := d.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &traceFile{disk: d, name: name, inner: f}, nil
}

func (d *traceDisk) Open(name string) (storage.File, error) {
	d.trace.add('o', name, 0, 0)
	f, err := d.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &traceFile{disk: d, name: name, inner: f}, nil
}

func (d *traceDisk) Remove(name string) error {
	d.trace.add('x', name, 0, 0)
	return d.inner.Remove(name)
}
func (d *traceDisk) Rename(oldName, newName string) error {
	replaced := 0
	if storage.Exists(d.inner, newName) {
		replaced = 1
	}
	d.trace.add('m', newName, 0, replaced)
	return d.inner.Rename(oldName, newName)
}
func (d *traceDisk) List() ([]string, error) {
	d.trace.add('l', "", 0, 0)
	return d.inner.List()
}
func (d *traceDisk) FlushCache() { d.inner.FlushCache() }

func (d *traceDisk) Rebind(clk clock.Clock) storage.Disk {
	return &traceDisk{inner: storage.RebindClock(d.inner, clk), trace: d.trace}
}

type traceFile struct {
	disk  *traceDisk
	name  string
	inner storage.File
}

func (f *traceFile) ReadAt(p []byte, off int64) (int, error) {
	f.disk.trace.add('r', f.name, off, len(p))
	return f.inner.ReadAt(p, off)
}

func (f *traceFile) WriteAt(p []byte, off int64) (int, error) {
	f.disk.trace.add('w', f.name, off, len(p))
	return f.inner.WriteAt(p, off)
}

func (f *traceFile) Sync() error {
	f.disk.trace.add('s', f.name, 0, 0)
	return f.inner.Sync()
}
func (f *traceFile) Size() (int64, error) { return f.inner.Size() }
func (f *traceFile) Close() error         { return f.inner.Close() }

// overlapSpecs is the workload for the overlap experiments: 1 MB
// sub-chunks (the paper's sweet spot) so AIX media time, not the fixed
// per-request overhead, dominates, and the network time per sub-chunk is
// worth hiding.
func overlapSpecs() (Config, []ArraySpec) {
	cfg := Config{NumClients: 4, NumServers: 2, SubchunkBytes: 1 << 20}
	shape := []int{2048, 2048} // 16 MB of float32: 8 sub-chunks per server
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{2})
	return cfg, []ArraySpec{{Name: "ovl", ElemSize: 4, Mem: mem, Disk: disk}}
}

// retainingAIXDisk is simDiskFactory's disk over a MemDisk that keeps
// what it is given. A commit-mode deployment that touches a key twice
// needs one: the discarding disk reads a decision record back as zeros,
// which fails the second operation as ErrCorrupt.
func retainingAIXDisk(_ int, clk clock.Clock) storage.Disk {
	return storage.NewSimDisk(storage.NewMemDisk(), storage.SP2AIX(), clk)
}

// tracedAIXFactory builds per-server traced SimDisks over the Table 1
// AIX model, exposing both the traces and the SimDisks to the caller.
func tracedAIXFactory(n int) ([]*diskTrace, []*storage.SimDisk, DiskFactory) {
	traces := make([]*diskTrace, n)
	sims := make([]*storage.SimDisk, n)
	for i := range traces {
		traces[i] = &diskTrace{}
	}
	factory := func(i int, clk clock.Clock) storage.Disk {
		sims[i] = storage.NewSimDisk(storage.NewMemDisk(), storage.SP2AIX(), clk)
		return &traceDisk{inner: sims[i], trace: traces[i]}
	}
	return traces, sims, factory
}

// wantSerialAccounting fails unless every server of a run with a window
// of zero reports no overlap and, as stall, exactly its stage's disk
// time: the mover waited out every disk call and hid none. A server's
// disk time is the sum of the disk spans on its storage track, which
// the run traced into rec: a SimDisk charges time for WriteAt and ReadAt
// alone.
func wantSerialAccounting(t *testing.T, res SimResult, rec *obs.Recorder) {
	t.Helper()
	tracks, events, _ := rec.Snapshot()
	disk := make([]int64, len(res.ServerStats))
	for _, e := range events {
		var i int
		if _, err := fmt.Sscanf(tracks[e.Track], "server%d/storage", &i); err == nil && e.Cat == obs.CatDisk {
			disk[i] += int64(e.Dur)
		}
	}
	for i, st := range res.ServerStats {
		if st.OverlapNanos != 0 || st.StallNanos != disk[i] || disk[i] == 0 {
			t.Errorf("serial server %d reports overlap=%d stall=%d, want 0 and its disk time %d",
				i, st.OverlapNanos, st.StallNanos, disk[i])
		}
	}
}

func TestStagedWriteOverlapsDiskAndNetwork(t *testing.T) {
	cfg, specs := overlapSpecs()
	rec := obs.NewRecorder(0)

	run := func(pipeline int) (SimResult, []*diskTrace) {
		c := cfg
		c.Pipeline = pipeline
		if pipeline == 1 {
			c.Trace = rec
		}
		traces, _, factory := tracedAIXFactory(c.NumServers)
		res, err := RunSim(c, mpi.SP2Link(), factory, func(cl *Client) error {
			return cl.WriteArrays("", specs, makeBufs(cl, specs, true))
		})
		if err != nil {
			t.Fatalf("pipeline %d: %v", pipeline, err)
		}
		return res, traces
	}

	serial, serialTraces := run(1)
	staged, stagedTraces := run(4)
	again, _ := run(4)

	if staged.MaxClientElapsed() >= serial.MaxClientElapsed() {
		t.Errorf("staged write (%v) not faster than serial (%v)",
			staged.MaxClientElapsed(), serial.MaxClientElapsed())
	}
	t.Logf("write makespan: serial=%v staged=%v (saved %v)",
		serial.MaxClientElapsed(), staged.MaxClientElapsed(),
		serial.MaxClientElapsed()-staged.MaxClientElapsed())

	if staged.Elapsed != again.Elapsed || staged.MaxClientElapsed() != again.MaxClientElapsed() {
		t.Errorf("staged engine non-deterministic under vtime: %v/%v vs %v/%v",
			staged.Elapsed, staged.MaxClientElapsed(), again.Elapsed, again.MaxClientElapsed())
	}

	var overlap int64
	for _, st := range staged.ServerStats {
		overlap += st.OverlapNanos
	}
	if overlap <= 0 {
		t.Error("staged write hid no disk time behind the network")
	}
	wantSerialAccounting(t, serial, rec)

	for i := range serialTraces {
		serialTraces[i].assertSequential(t, i)
		stagedTraces[i].assertSequential(t, i)
	}
}

func TestStagedReadOverlapsDiskAndNetwork(t *testing.T) {
	cfg, specs := overlapSpecs()
	rec := obs.NewRecorder(0)

	run := func(readAhead int) (SimResult, []*diskTrace) {
		c := cfg
		c.ReadAhead = readAhead
		if readAhead == 0 {
			c.Trace = rec
		}
		traces, sims, factory := tracedAIXFactory(c.NumServers)
		res, err := RunSim(c, mpi.SP2Link(), factory, func(cl *Client) error {
			bufs := makeBufs(cl, specs, true)
			if err := cl.WriteArrays("", specs, bufs); err != nil {
				return err
			}
			// The paper flushes the buffer cache before read experiments;
			// at this point the collective has completed, so every server
			// is idle and flushing from the master client is safe.
			if cl.IsMaster() {
				for _, sd := range sims {
					sd.FlushCache()
				}
			}
			got := makeBufs(cl, specs, false)
			if err := cl.ReadArrays("", specs, got); err != nil {
				return err
			}
			return checkBufs(cl, specs, got)
		})
		if err != nil {
			t.Fatalf("readahead %d: %v", readAhead, err)
		}
		return res, traces
	}

	serial, serialTraces := run(0)
	staged, stagedTraces := run(2)
	again, _ := run(2)

	// ClientElapsed reflects the last collective — the read.
	if staged.MaxClientElapsed() >= serial.MaxClientElapsed() {
		t.Errorf("read-ahead read (%v) not faster than serial read (%v)",
			staged.MaxClientElapsed(), serial.MaxClientElapsed())
	}
	t.Logf("read makespan: serial=%v staged=%v (saved %v)",
		serial.MaxClientElapsed(), staged.MaxClientElapsed(),
		serial.MaxClientElapsed()-staged.MaxClientElapsed())

	if staged.MaxClientElapsed() != again.MaxClientElapsed() {
		t.Errorf("staged read non-deterministic under vtime: %v vs %v",
			staged.MaxClientElapsed(), again.MaxClientElapsed())
	}

	var overlap int64
	for _, st := range staged.ServerStats {
		overlap += st.OverlapNanos
	}
	if overlap <= 0 {
		t.Error("read-ahead hid no disk time behind the network")
	}
	wantSerialAccounting(t, serial, rec)

	for i := range serialTraces {
		serialTraces[i].assertSequential(t, i)
		stagedTraces[i].assertSequential(t, i)
	}
}

// TestSerialKnobsReproduceSerialTimings pins the gating contract: the
// zero-value configuration and an explicit Pipeline=1/ReadAhead=0 both
// open a window of zero at the storage stage — the paper's serial loop —
// and produce identical virtual timings, reporting every disk wait as
// stall and none of it as overlap.
func TestSerialKnobsReproduceSerialTimings(t *testing.T) {
	base := Config{NumClients: 4, NumServers: 2, SubchunkBytes: 2 << 10}
	shape := []int{64, 64}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{2})
	specs := []ArraySpec{{Name: "ser", ElemSize: 4, Mem: mem, Disk: disk}}

	run := func(c Config) (SimResult, *obs.Recorder) {
		c.Trace = obs.NewRecorder(0)
		res, err := RunSim(c, mpi.SP2Link(), retainingAIXDisk, func(cl *Client) error {
			bufs := makeBufs(cl, specs, true)
			if err := cl.WriteArrays("", specs, bufs); err != nil {
				return err
			}
			return cl.ReadArrays("", specs, bufs)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, c.Trace
	}

	implicit, implicitRec := run(base)
	explicit := base
	explicit.Pipeline, explicit.ReadAhead = 1, 0
	explicitRes, explicitRec := run(explicit)
	repeat, _ := run(base)

	if implicit.Elapsed != explicitRes.Elapsed || implicit.MaxClientElapsed() != explicitRes.MaxClientElapsed() {
		t.Errorf("explicit serial knobs changed timings: %v/%v vs %v/%v",
			implicit.Elapsed, implicit.MaxClientElapsed(),
			explicitRes.Elapsed, explicitRes.MaxClientElapsed())
	}
	if implicit.Elapsed != repeat.Elapsed {
		t.Errorf("serial path non-deterministic: %v vs %v", implicit.Elapsed, repeat.Elapsed)
	}
	wantSerialAccounting(t, implicit, implicitRec)
	wantSerialAccounting(t, explicitRes, explicitRec)
}

// TestReadHonorsDeadline covers a read whose disk is too slow for the
// operation budget: it must stop between sub-chunks with a typed timeout
// instead of grinding through its whole plan — one read at a time and
// with read-ahead, where the mover gets as far as its first sub-chunk and the
// window bounds what was issued on its behalf at that one plus
// ReadAhead.
func TestReadHonorsDeadline(t *testing.T) {
	cfg := Config{NumClients: 2, NumServers: 2, SubchunkBytes: 1 << 10, OpTimeout: 50 * time.Millisecond}
	shape := []int{128, 32} // 16 KB: 8 sub-chunks per server
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{2})
	disk := array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{2})
	specs := []ArraySpec{{Name: "slow", ElemSize: 4, Mem: mem, Disk: disk}}

	for s := 0; s < cfg.NumServers; s++ {
		if n := len(planSubchunks(0, specs[0], share(specs[0], cfg.NumServers, s), specs[0].subchunkBytes(cfg))); n < 8 {
			t.Fatalf("workload too small: server %d plans %d sub-chunks", s, n)
		}
	}

	// Seed the files with a fast deadline-free deployment over plain
	// MemDisks, then read them through a disk slow enough that one
	// sub-chunk read (~102 ms) blows the 50 ms budget.
	inner := memDisks(cfg.NumServers)
	seedCfg := cfg
	seedCfg.OpTimeout = 0
	if _, err := RunSim(seedCfg, mpi.SP2Link(), func(i int, clk clock.Clock) storage.Disk {
		return inner[i]
	}, func(cl *Client) error {
		return cl.WriteArrays("", specs, makeBufs(cl, specs, true))
	}); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	slow := storage.AIXModel{MediaRate: 1e4}

	for _, readAhead := range []int{0, 2} {
		t.Run(fmt.Sprintf("readahead=%d", readAhead), func(t *testing.T) {
			c := cfg
			c.ReadAhead = readAhead
			traces := make([]*diskTrace, c.NumServers)
			res, err := RunSim(c, mpi.SP2Link(), func(i int, clk clock.Clock) storage.Disk {
				traces[i] = &diskTrace{}
				return &traceDisk{inner: storage.NewSimDisk(inner[i], slow, clk), trace: traces[i]}
			}, func(cl *Client) error {
				return cl.ReadArrays("", specs, makeBufs(cl, specs, false))
			})
			if err == nil {
				t.Fatal("read on a hopelessly slow disk succeeded")
			}
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("err = %v, want ErrTimeout", err)
			}
			var timeouts int64
			for _, st := range res.ServerStats {
				timeouts += st.Timeouts
			}
			if timeouts == 0 {
				t.Error("no server recorded a timeout")
			}
			for i, tr := range traces {
				reads := 0
				for _, e := range tr.events {
					if e.op == 'r' && e.name == specs[0].FileName("", i) {
						reads++
					}
				}
				if reads == 0 || reads > 1+readAhead {
					t.Errorf("server %d issued %d data reads; a mover stopped after its first sub-chunk is owed 1 + ReadAhead = %d",
						i, reads, 1+readAhead)
				}
			}
		})
	}
}

// TestReadAbortDrained forges an abort broadcast onto a read
// operation's server tag once the read is admitted and checks the
// server actually consumes it — the read stops with the abort's typed
// status, and the deployment stays healthy for the next collective. A
// copy forged before the read was admitted names an operation the
// router does not know yet: it is dropped and counted, never delivered
// to the read — the router's isolation rule, stronger than "drained".
func TestReadAbortDrained(t *testing.T) {
	cfg := Config{NumClients: 2, NumServers: 1, SubchunkBytes: 64,
		OpTimeout: 5 * time.Second, PullRetries: 1}
	shape := []int{16, 16}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{2})
	disk := array.MustSchema(shape, []array.Dist{array.Star, array.Star}, nil)
	specs := []ArraySpec{{Name: "ab", ElemSize: 4, Mem: mem, Disk: disk}}

	world := mpi.NewWorld(cfg.WorldSize())
	comms := make([]mpi.Comm, cfg.WorldSize())
	for r := range comms {
		comms[r] = world.Comm(r)
	}
	serverRank := cfg.ServerRank(0)
	forge := func() { comms[1].SendOwned(serverRank, tagToServer(1), encodeAbort(0, 0, ErrTimeout)) }
	cfg.dispatchHook = func(seq int) {
		if seq == 1 {
			forge() // the read (seq 1) is admitted: this copy reaches it
		}
	}
	barrier := newBarrier(cfg.NumClients)

	var srv *Server
	abortErrs := make([]error, cfg.NumClients)
	var wg sync.WaitGroup
	errs := make([]error, cfg.WorldSize())
	for r := 0; r < cfg.NumClients; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = runClientNode(cfg, comms[r], func(cl *Client) error {
				bufs := makeBufs(cl, specs, true)
				if err := cl.WriteArrays("", specs, bufs); err != nil { // seq 0
					return err
				}
				barrier()
				if cl.Rank() == 1 {
					forge() // the read is not admitted yet: this copy is dropped
				}
				barrier()
				got := makeBufs(cl, specs, false)
				rerr := cl.ReadArrays("", specs, got) // seq 1: aborted
				abortErrs[cl.Rank()] = rerr
				barrier()
				// The deployment must have drained the abort: a fresh
				// read on the same deployment succeeds with good data.
				if err := cl.ReadArrays("", specs, got); err != nil { // seq 2
					return fmt.Errorf("read after abort: %w", err)
				}
				return checkBufs(cl, specs, got)
			})
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Every sub-chunk read takes 2 ms: the read is still scattering
		// when its router hands it the late copy.
		disk := &slowDisk{Disk: storage.NewMemDisk(), delay: 2 * time.Millisecond}
		srv = NewServer(cfg, comms[serverRank], disk, clock.NewReal())
		errs[serverRank] = srv.Serve()
	}()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, rerr := range abortErrs {
		if rerr == nil {
			t.Fatalf("client %d: aborted read succeeded", r)
		}
		if !errors.Is(rerr, ErrTimeout) {
			t.Errorf("client %d: abort status lost its type: %v", r, rerr)
		}
		if !strings.Contains(rerr.Error(), "abort") {
			t.Errorf("client %d: error does not name the abort: %v", r, rerr)
		}
	}
	if srv.Stats().Aborts == 0 {
		t.Error("server never recorded obeying the abort")
	}
	if got := srv.Stats().FramesRejected; got != 1 {
		t.Errorf("FramesRejected = %d, want 1: the copy forged before the read was admitted", got)
	}
}

// TestStagedStorageErrorsPropagate drives disk faults through the
// storage stage: an error raised on the activity mid-window must come
// back in a reply, fail the collective with the real cause through
// Done/Complete, and leave nothing behind (the run returning — Serve
// stops its activity on the way out — is the proof).
func TestStagedStorageErrorsPropagate(t *testing.T) {
	shape := []int{32, 32}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{2})
	disk := array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{1})
	specs := []ArraySpec{{Name: "flt", ElemSize: 4, Mem: mem, Disk: disk}}
	cfg := Config{NumClients: 2, NumServers: 1, SubchunkBytes: 256, Pipeline: 4, ReadAhead: 2}

	cases := []struct {
		name  string
		fault func(d *storage.FaultDisk)
		read  bool
	}{
		{"write-fails-midway", func(d *storage.FaultDisk) { d.FailWritesAfter = 1 }, false},
		{"create-fails", func(d *storage.FaultDisk) { d.FailOpens = true }, false},
		{"read-fails-midway", func(d *storage.FaultDisk) { d.FailReadsAfter = 1 }, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fd := &storage.FaultDisk{Inner: storage.NewMemDisk()}
			if !tc.read {
				tc.fault(fd)
			}
			err := RunReal(cfg, []storage.Disk{fd}, func(cl *Client) error {
				bufs := makeBufs(cl, specs, true)
				werr := cl.WriteArrays("", specs, bufs)
				if !tc.read {
					return werr
				}
				if werr != nil {
					return fmt.Errorf("seed write: %w", werr)
				}
				if cl.IsMaster() {
					tc.fault(fd) // servers are idle between collectives
				}
				return cl.ReadArrays("", specs, makeBufs(cl, specs, false))
			})
			if err == nil {
				t.Fatal("collective succeeded despite injected disk fault")
			}
			if !strings.Contains(err.Error(), "injected fault") {
				t.Fatalf("fault cause lost crossing the stage boundary: %v", err)
			}
		})
	}
}

// TestChaosLossyStagedEngine reruns the lossy-transport chaos scenario
// with write-behind and read-ahead fully engaged: PR 1's robustness contract —
// typed errors, no deadlock, post-heal recovery — must hold across the
// stage boundary too.
func TestChaosLossyStagedEngine(t *testing.T) {
	t.Parallel()
	cfg, specs := chaosSpecs(3, 2)
	cfg.Pipeline = 4
	cfg.ReadAhead = 2
	plan := mpi.NewFaultPlan(17)
	plan.DropProb, plan.DupProb, plan.ReorderProb = 0.10, 0.10, 0.10
	plan.DelayProb, plan.Delay = 0.10, 2*time.Millisecond
	comms := wrapWorld(cfg, plan)
	barrier := newBarrier(cfg.NumClients)

	const rounds = 2
	attempt := make([]error, cfg.NumClients)
	_, err := RunWith(cfg, comms, memDisks(cfg.NumServers), func(cl *Client) error {
		bufs := makeBufs(cl, specs, true)
		for round := 0; round < rounds; round++ {
			suffix := fmt.Sprintf(".r%d", round)
			werr := cl.WriteArrays(suffix, specs, bufs)
			typedOrNil(t, cl.Rank(), fmt.Sprintf("write round %d", round), werr)
			got := makeBufs(cl, specs, false)
			rerr := cl.ReadArrays(suffix, specs, got)
			typedOrNil(t, cl.Rank(), fmt.Sprintf("read round %d", round), rerr)
			if werr == nil && rerr == nil {
				if cerr := checkBufs(cl, specs, got); cerr != nil {
					return cerr
				}
			}
		}
		barrier()
		if cl.Rank() == 0 {
			plan.Heal()
		}
		barrier()
		for try := 0; ; try++ {
			werr := cl.WriteArrays(fmt.Sprintf(".clean%d", try), specs, bufs)
			typedOrNil(t, cl.Rank(), "post-heal write", werr)
			attempt[cl.Rank()] = werr
			barrier()
			allOK := true
			for _, aerr := range attempt {
				if aerr != nil {
					allOK = false
				}
			}
			barrier() // nobody rewrites attempt until all have judged it
			if allOK {
				got := makeBufs(cl, specs, false)
				if rerr := cl.ReadArrays(fmt.Sprintf(".clean%d", try), specs, got); rerr != nil {
					return fmt.Errorf("post-heal read: %w", rerr)
				}
				return checkBufs(cl, specs, got)
			}
			if try == 5 {
				return fmt.Errorf("deployment still failing after heal: %v", attempt[cl.Rank()])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// onStage runs body as a mover holding a server with a storage activity
// — twice: under the real clock over a genuinely sleeping disk, and as a
// simulated process over the AIX model, where an activity the mover
// failed to join (or one that never answers it) parks forever and
// sim.Run reports the deadlock.
func onStage(t *testing.T, cfg Config, body func(t *testing.T, s *Server)) {
	comm := mpi.NewWorld(cfg.WorldSize()).Comm(cfg.ServerRank(0))
	run := func(t *testing.T, clk clock.Clock, disk storage.Disk) {
		s := NewServer(cfg, comm, disk, clk)
		s.dsched, s.replies = newDiskSched(s), queue.New[diskReply](clk)
		body(t, s)
		s.dsched.stop()
	}
	t.Run("real", func(t *testing.T) {
		run(t, clock.NewReal(), &slowDisk{Disk: storage.NewMemDisk(), delay: time.Millisecond})
	})
	t.Run("vtime", func(t *testing.T) {
		sim := vtime.New()
		sim.Spawn("mover", func(p *vtime.Proc) {
			clk := clock.NewVirtual(p)
			run(t, clk, storage.NewSimDisk(storage.NewMemDisk(), storage.SP2AIX(), clk))
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// poolWatch returns a probe reporting how many buffers were taken from
// bufpool and never put back, and how many Puts it dropped, since the
// call.
func poolWatch() func() (leaked, dropped int64) {
	g0, p0, d0 := bufpool.Stats()
	return func() (int64, int64) {
		g, p, d := bufpool.Stats()
		return (g - g0) - (p - p0), d - d0
	}
}

// TestWriteAbandonWithFullWindow is a mover abort at the worst moment:
// the write window is full and the disk is busy. abandon must wait out
// every queued write — each pooled buffer goes back to bufpool exactly
// once — and return with nothing outstanding. A window of zero (the
// paper's loop, Pipeline 1) is full with nothing outstanding: its write
// returned only once the disk was done with it.
func TestWriteAbandonWithFullWindow(t *testing.T) {
	onStage(t, Config{NumClients: 1, NumServers: 1}, func(t *testing.T, s *Server) {
		for _, tc := range []struct{ pipeline, window int }{{1, 0}, {3, 3}} {
			s.cfg.Pipeline = tc.pipeline
			probe := poolWatch()
			k, err := s.newWriteSink(fmt.Sprintf("abandoned%d", tc.window), false, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if k.window != tc.window {
				t.Errorf("Pipeline %d opened a window of %d, want %d", tc.pipeline, k.window, tc.window)
			}
			const n = 64 << 10
			for i := 0; i < max(k.window, 1); i++ {
				buf := bufpool.GetRaw(n)
				if err := k.write(buf, int64(i)*n, buf); err != nil {
					t.Error(err)
				}
			}
			if k.out != k.window {
				t.Errorf("window %d: %d writes outstanding before the abort, want a full window", k.window, k.out)
			}
			k.abandon()
			if k.out != 0 {
				t.Errorf("window %d: abandon returned with %d writes outstanding", k.window, k.out)
			}
			if leaked, dropped := probe(); leaked != 0 || dropped != 0 {
				t.Errorf("window %d: abandon with a full window: %d buffers never returned to the pool, %d Puts dropped",
					k.window, leaked, dropped)
			}
			if disk, stall := k.report(); disk <= 0 || stall <= 0 {
				t.Errorf("window %d: report() = (%d, %d) after waiting out a busy disk, want both positive", k.window, disk, stall)
			}
		}
	})
}

// TestReadAbandonReturnsOutstandingBuffers stops a read-ahead source
// after its first sub-chunk: the reads submitted ahead of the mover own
// pooled buffers, and abandon must hand every one of them back.
func TestReadAbandonReturnsOutstandingBuffers(t *testing.T) {
	cfg := Config{NumClients: 1, NumServers: 1, ReadAhead: 2}
	const n = 64 << 10
	subs := make([]subchunkJob, 6)
	for i := range subs {
		subs[i] = subchunkJob{FileOffset: int64(i) * n, Bytes: n}
	}
	onStage(t, cfg, func(t *testing.T, s *Server) {
		f, err := s.disk.Create("ahead")
		if err == nil {
			_, err = f.WriteAt(make([]byte, len(subs)*n), 0)
			f.Close()
		}
		if err != nil {
			t.Error(err)
			return
		}
		probe := poolWatch()
		src, err := s.newReadSource("ahead", subs, int64(len(subs))*n)
		if err != nil {
			t.Error(err)
			return
		}
		k := src.(*schedReadSource)
		buf, err := src.next(subs[0])
		if err != nil {
			t.Error(err)
		}
		bufpool.Put(buf) // the mover recycles what it scattered
		if k.out != cfg.ReadAhead || k.issued != 1+cfg.ReadAhead {
			t.Errorf("after the first sub-chunk %d reads are outstanding of %d issued, want %d of %d",
				k.out, k.issued, cfg.ReadAhead, 1+cfg.ReadAhead)
		}
		src.abandon()
		if leaked, dropped := probe(); leaked != 0 || dropped != 0 {
			t.Errorf("abandon with %d reads ahead: %d buffers never returned to the pool, %d Puts dropped",
				cfg.ReadAhead, leaked, dropped)
		}
	})
}
