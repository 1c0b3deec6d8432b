package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panda/internal/array"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/obs"
	"panda/internal/storage"
)

// --- trace reconstruction helpers ---------------------------------------

// traceIndex resolves a parsed Chrome trace's pid/tid namespace back to
// process and thread names.
type traceIndex struct {
	proc   map[int]string            // pid -> process name
	thread map[[2]int]string         // (pid,tid) -> thread name
	spans  map[[2]int][]obsSpan      // (pid,tid) -> spans
	byProc map[string]map[string]int // process -> thread name -> tid
}

type obsSpan struct {
	name, cat  string
	start, end time.Duration
}

func indexTrace(t *testing.T, tr *obs.ChromeTrace) *traceIndex {
	t.Helper()
	ix := &traceIndex{
		proc:   map[int]string{},
		thread: map[[2]int]string{},
		spans:  map[[2]int][]obsSpan{},
		byProc: map[string]map[string]int{},
	}
	for _, e := range tr.TraceEvents {
		switch e.Ph {
		case "M":
			name, _ := e.Args["name"].(string)
			if e.Name == "process_name" {
				ix.proc[e.Pid] = name
			} else if e.Name == "thread_name" {
				ix.thread[[2]int{e.Pid, e.Tid}] = name
			}
		case "X":
			start := time.Duration(e.Ts * 1e3)
			ix.spans[[2]int{e.Pid, e.Tid}] = append(ix.spans[[2]int{e.Pid, e.Tid}], obsSpan{
				name: e.Name, cat: e.Cat, start: start, end: start + time.Duration(e.Dur*1e3),
			})
		}
	}
	for k, name := range ix.thread {
		proc := ix.proc[k[0]]
		if ix.byProc[proc] == nil {
			ix.byProc[proc] = map[string]int{}
		}
		ix.byProc[proc][name] = k[1]
	}
	return ix
}

// requireOverlap asserts that, for the given process, at least one disk
// span on its storage thread runs concurrently with a network span on
// its main thread — the storage stage's overlap, reconstructed purely
// from the exported trace file.
func requireOverlap(t *testing.T, ix *traceIndex, proc string) {
	t.Helper()
	threads, ok := ix.byProc[proc]
	if !ok {
		t.Fatalf("%s: no such process in trace (have %v)", proc, ix.proc)
	}
	pid := 0
	for p, name := range ix.proc {
		if name == proc {
			pid = p
		}
	}
	mover := ix.spans[[2]int{pid, threads["main"]}]
	disk := ix.spans[[2]int{pid, threads["storage"]}]
	if len(disk) == 0 {
		t.Fatalf("%s: no spans on storage thread", proc)
	}
	for _, d := range disk {
		if d.cat != "disk" {
			continue
		}
		for _, n := range mover {
			if n.cat != "net" {
				continue
			}
			if d.start < n.end && n.start < d.end {
				return // found concurrent disk + network activity
			}
		}
	}
	t.Errorf("%s: no disk span on the storage thread overlaps a network span on the mover thread", proc)
}

func exportAndParse(t *testing.T, rec *obs.Recorder) *obs.ChromeTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace does not validate: %v\n%s", err, buf.Bytes())
	}
	return tr
}

// TestTracedStagedWriteVirtual runs a write-behind write under virtual
// time with tracing on, exports Chrome trace JSON, and verifies that the
// parsed file reconstructs the storage stage's disk/network overlap on
// every server.
func TestTracedStagedWriteVirtual(t *testing.T) {
	cfg, specs := overlapSpecs()
	cfg.Pipeline = 4
	rec := obs.NewRecorder(0)
	reg := obs.NewRegistry()
	cfg.Trace = rec
	cfg.Metrics = reg

	res, err := RunSim(cfg, mpi.SP2Link(), simDiskFactory(storage.SP2AIX()), func(cl *Client) error {
		return cl.WriteArrays("", specs, makeBufs(cl, specs, true))
	})
	if err != nil {
		t.Fatal(err)
	}
	var overlap int64
	for _, st := range res.ServerStats {
		overlap += st.OverlapNanos
	}
	if overlap <= 0 {
		t.Fatal("write-behind reported no overlap; trace assertion would be vacuous")
	}

	ix := indexTrace(t, exportAndParse(t, rec))
	for i := 0; i < cfg.NumServers; i++ {
		requireOverlap(t, ix, fmt.Sprintf("server%d", i))
	}

	// The metrics registry aggregated the same run.
	if n := reg.Counter("msgs_sent").Value(); n == 0 {
		t.Error("metrics registry counted no messages")
	}
	if h := reg.Histogram("subchunk_latency_ns", obs.LatencyBounds).Snapshot(); h.Count == 0 {
		t.Error("sub-chunk latency histogram is empty")
	}
	if h := reg.Histogram("stage_queue_depth", obs.DepthBounds).Snapshot(); h.Count == 0 {
		t.Error("stage queue depth histogram is empty")
	}
}

// TestTracedStagedReadVirtual is the read-side counterpart: prefetch
// (ReadAhead) disk spans must overlap scatters in the exported trace.
func TestTracedStagedReadVirtual(t *testing.T) {
	cfg, specs := overlapSpecs()
	cfg.ReadAhead = 2
	rec := obs.NewRecorder(0)
	cfg.Trace = rec

	_, err := RunSim(cfg, mpi.SP2Link(), retainingAIXDisk, func(cl *Client) error {
		bufs := makeBufs(cl, specs, true)
		if err := cl.WriteArrays("", specs, bufs); err != nil {
			return err
		}
		return cl.ReadArrays("", specs, makeBufs(cl, specs, false))
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := indexTrace(t, exportAndParse(t, rec))
	for i := 0; i < cfg.NumServers; i++ {
		requireOverlap(t, ix, fmt.Sprintf("server%d", i))
	}
}

// slowDisk wraps a Disk so every positioned I/O takes a fixed real
// delay — enough width for real-time spans to overlap measurably — and,
// when first is set, holds its first WriteAt until first returns: the
// storage stage is provably busy for as long as a test wants it to be.
type slowDisk struct {
	storage.Disk
	delay time.Duration
	first func()
	once  sync.Once
}

func (d *slowDisk) Create(name string) (storage.File, error) {
	f, err := d.Disk.Create(name)
	if err != nil {
		return nil, err
	}
	return &slowFile{File: f, d: d}, nil
}

func (d *slowDisk) Open(name string) (storage.File, error) {
	f, err := d.Disk.Open(name)
	if err != nil {
		return nil, err
	}
	return &slowFile{File: f, d: d}, nil
}

// slowFile is an interposer: every read and write must take the delay,
// so it has no Unwrap and hides the host file.
type slowFile struct {
	storage.File
	d *slowDisk
}

func (f *slowFile) WriteAt(p []byte, off int64) (int, error) {
	if f.d.first != nil {
		f.d.once.Do(f.d.first)
	}
	time.Sleep(f.d.delay)
	return f.File.WriteAt(p, off)
}

func (f *slowFile) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(f.d.delay)
	return f.File.ReadAt(p, off)
}

// TestTracedStagedWriteReal runs the storage stage in real time (in-proc
// goroutine nodes, a genuinely sleeping disk) with tracing on and makes
// the same overlap assertion on the exported file: storage-stage spans
// concurrent with mover spans.
func TestTracedStagedWriteReal(t *testing.T) {
	cfg := Config{NumClients: 2, NumServers: 1, SubchunkBytes: 64 << 10, Pipeline: 4}
	specs := []ArraySpec{mustSpec1D(t, "rt", 1<<20, cfg.NumClients, cfg.NumServers)}
	rec := obs.NewRecorder(0)
	cfg.Trace = rec

	disks := []storage.Disk{&slowDisk{Disk: storage.NewMemDisk(), delay: 2 * time.Millisecond}}
	if err := RunReal(cfg, disks, func(cl *Client) error {
		return cl.WriteArrays("", specs, makeBufs(cl, specs, true))
	}); err != nil {
		t.Fatal(err)
	}
	ix := indexTrace(t, exportAndParse(t, rec))
	requireOverlap(t, ix, "server0")
}

// mustSpec1D builds a 1-D BLOCK/BLOCK spec of the given byte size.
func mustSpec1D(t *testing.T, name string, size int64, clients, servers int) ArraySpec {
	t.Helper()
	const elemSize = 4
	if size%(elemSize*int64(clients)) != 0 || size%(elemSize*int64(servers)) != 0 {
		t.Fatalf("size %d does not divide evenly over %d clients / %d servers", size, clients, servers)
	}
	shape := []int{int(size / elemSize)}
	mem := array.MustSchema(shape, []array.Dist{array.Block}, []int{clients})
	disk := array.MustSchema(shape, []array.Dist{array.Block}, []int{servers})
	return ArraySpec{Name: name, ElemSize: elemSize, Mem: mem, Disk: disk}
}

// --- stats race (satellite: snapshot under concurrent mutation) ---------

// TestStatsSnapshotDuringOperation hammers Stats() from a second
// goroutine while collective operations are in flight. Run under
// -race, this is the regression test for the snapshot race: counters
// are mutated with atomic adds and read with atomic loads.
func TestStatsSnapshotDuringOperation(t *testing.T) {
	cfg := Config{NumClients: 2, NumServers: 2, SubchunkBytes: 8 << 10}
	specs := []ArraySpec{mustSpec1D(t, "race", 1<<20, cfg.NumClients, cfg.NumServers)}

	world := mpi.NewWorld(cfg.WorldSize())
	clk := clock.NewReal()
	srvs := make([]*Server, cfg.NumServers)
	cls := make([]atomic.Pointer[Client], cfg.NumClients)

	var wg sync.WaitGroup
	for i := 0; i < cfg.NumServers; i++ {
		rank := cfg.ServerRank(i)
		srvs[i] = NewServer(cfg, world.Comm(rank), storage.NewMemDisk(), clk)
		wg.Add(1)
		go func(s *Server) {
			defer wg.Done()
			if err := s.Serve(); err != nil {
				t.Errorf("server: %v", err)
			}
		}(srvs[i])
	}

	ready := make(chan struct{})
	stop := make(chan struct{})
	var sampled atomic.Int64
	go func() {
		close(ready)
		for {
			select {
			case <-stop:
				return
			default:
				for _, s := range srvs {
					st := s.Stats()
					if st.MsgsSent < 0 {
						t.Error("impossible snapshot")
					}
				}
				for i := range cls {
					if c := cls[i].Load(); c != nil {
						_ = c.Stats()
					}
				}
				sampled.Add(1)
			}
		}
	}()
	<-ready

	for r := 0; r < cfg.NumClients; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			err := clientMain(cfg, world.Comm(r), clk, func(cl *Client) error {
				cls[r].Store(cl)
				bufs := makeBufs(cl, specs, true)
				for round := 0; round < 4; round++ {
					if err := cl.WriteArrays("", specs, bufs); err != nil {
						return err
					}
					if err := cl.ReadArrays("", specs, makeBufs(cl, specs, false)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("client %d: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	if sampled.Load() == 0 {
		t.Error("sampler never ran")
	}
	var st Stats
	for _, s := range srvs {
		snap := s.Stats()
		st.MsgsSent += snap.MsgsSent
	}
	if st.MsgsSent == 0 {
		t.Error("servers sent no messages")
	}
}

// --- failure counters over the TCP hub transport ------------------------

// lagComm holds every outgoing sub-chunk data frame back for lag: a
// network on which pulling a sub-chunk takes a known minimum. An
// interposer (mpi's comm.go): it must see every frame, so it has no
// Unwrap.
type lagComm struct {
	endpoint
	lag time.Duration
}

func (c *lagComm) SendOwned(to, tag int, data []byte) {
	if len(data) > 0 && data[0] == msgSubData {
		time.Sleep(c.lag)
	}
	c.endpoint.SendOwned(to, tag, data)
}

// dropComm drops outgoing sub-chunk data frames: the first `first` per
// source client when healAfter is positive, or all of them forever when
// healAfter is zero. Everything else passes through. An interposer: it
// must see every frame, so it has no Unwrap.
type dropComm struct {
	endpoint
	mu      sync.Mutex
	remain  int
	forever bool
}

func (c *dropComm) drop(data []byte) bool {
	if len(data) == 0 || data[0] != msgSubData {
		return false
	}
	if c.forever {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remain > 0 {
		c.remain--
		return true
	}
	return false
}

func (c *dropComm) Send(to, tag int, data []byte) {
	if c.drop(data) {
		return
	}
	c.endpoint.Send(to, tag, data)
}

func (c *dropComm) SendOwned(to, tag int, data []byte) {
	if c.drop(data) {
		return
	}
	c.endpoint.SendOwned(to, tag, data)
}

// runOverTCP drives a full deployment over the TCP hub with per-rank
// comm wrappers, returning every rank's error and the final server
// stats (indexed by server).
func runOverTCP(t *testing.T, cfg Config, wrap func(rank int, c mpi.Comm) mpi.Comm, app App, disks func(i int) storage.Disk) ([]error, []Stats) {
	t.Helper()
	comms, shut, err := hubWorld(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, cfg.WorldSize())
	stats := make([]Stats, cfg.NumServers)
	var wg sync.WaitGroup
	for r, comm := range comms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer mpi.CloseComm(comm)
			wrapped := comm
			if wrap != nil {
				wrapped = wrap(r, comm)
			}
			if cfg.IsServer(r) {
				i := cfg.ServerIndex(r)
				clk := clock.NewReal()
				srv := NewServer(cfg, wrapped, disks(i), clk)
				errs[r] = srv.Serve()
				stats[i] = srv.Stats()
				return
			}
			errs[r] = runClientNode(cfg, wrapped, app)
		}()
	}
	wg.Wait()
	if err := shut(); err != nil {
		t.Fatalf("hub: %v", err)
	}
	return errs, stats
}

// TestRetriesSurfaceOverTCP drops the first sub-chunk data frame each
// client sends over the hub; pull retries mask the loss, the operation
// succeeds, and the servers' Retries counters surface the event.
func TestRetriesSurfaceOverTCP(t *testing.T) {
	cfg := Config{
		NumClients: 2, NumServers: 2, SubchunkBytes: 8 << 10,
		OpTimeout: 8 * time.Second, PullRetries: 3,
	}
	specs := []ArraySpec{mustSpec1D(t, "drop", 256<<10, cfg.NumClients, cfg.NumServers)}

	wrap := func(rank int, c mpi.Comm) mpi.Comm {
		if cfg.IsServer(rank) {
			return c
		}
		return &dropComm{endpoint: asEndpoint(c), remain: 1}
	}
	errs, stats := runOverTCP(t, cfg, wrap, func(cl *Client) error {
		bufs := makeBufs(cl, specs, true)
		if err := cl.WriteArrays("", specs, bufs); err != nil {
			return err
		}
		got := makeBufs(cl, specs, false)
		if err := cl.ReadArrays("", specs, got); err != nil {
			return err
		}
		return checkBufs(cl, specs, got)
	}, func(int) storage.Disk { return storage.NewMemDisk() })

	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	var retries int64
	for _, st := range stats {
		retries += st.Retries
	}
	if retries == 0 {
		t.Error("dropped frames were recovered without any Retries counted")
	}
}

// TestTimeoutsAndAbortsSurfaceOverTCP silences one client's data frames
// entirely: the write cannot finish, servers time out, the master
// broadcasts an abort, and the counters say so.
func TestTimeoutsAndAbortsSurfaceOverTCP(t *testing.T) {
	cfg := Config{
		NumClients: 2, NumServers: 2, SubchunkBytes: 8 << 10,
		OpTimeout: 1200 * time.Millisecond, PullRetries: 1,
	}
	specs := []ArraySpec{mustSpec1D(t, "dead", 256<<10, cfg.NumClients, cfg.NumServers)}

	wrap := func(rank int, c mpi.Comm) mpi.Comm {
		if rank == 1 {
			return &dropComm{endpoint: asEndpoint(c), forever: true}
		}
		return c
	}
	errs, stats := runOverTCP(t, cfg, wrap, func(cl *Client) error {
		err := cl.WriteArrays("", specs, makeBufs(cl, specs, true))
		if err == nil {
			return errors.New("write succeeded with a silenced client")
		}
		return nil // the failure is the expected outcome
	}, func(int) storage.Disk { return storage.NewMemDisk() })

	for r, err := range errs {
		if err != nil && !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrPeerLost) {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	var timeouts, aborts int64
	for _, st := range stats {
		timeouts += st.Timeouts
		aborts += st.Aborts
	}
	if timeouts == 0 {
		t.Error("no Timeouts surfaced in server stats")
	}
	if aborts == 0 {
		t.Error("no Aborts surfaced in server stats")
	}
}

// TestOverlapAndStallSurfaceOverTCP runs write-behind over the hub:
// OverlapNanos and StallNanos must both surface through Stats on a real
// transport, not just under vtime. Neither is left to a race between a
// sleeping disk and the network: the first WriteAt is held until the
// mover has filled the write window behind it — disk time the network
// stage demonstrably overlapped — and a moment longer, so the hand-off
// that found the window full stalls.
func TestOverlapAndStallSurfaceOverTCP(t *testing.T) {
	cfg := Config{NumClients: 2, NumServers: 1, SubchunkBytes: 32 << 10, Pipeline: 2, Metrics: obs.NewRegistry()}
	specs := []ArraySpec{mustSpec1D(t, "ovl", 256<<10, cfg.NumClients, cfg.NumServers)}

	depth := cfg.Metrics.Histogram("stage_queue_depth", obs.DepthBounds)
	queueFull := func() {
		for waited := time.Duration(0); ; waited += 200 * time.Microsecond {
			// Depths 1 and 2 fit the window; a deeper observation is the
			// mover arriving with a sub-chunk there is no room for.
			if snap := depth.Snapshot(); snap.Count-snap.Counts[0]-snap.Counts[1] > 0 {
				break
			}
			if waited > 10*time.Second {
				t.Error("the write window never filled behind a blocked disk")
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The clients' data frames leave 5 ms late, so the two sub-chunks
	// pulled behind the held WriteAt are 10 ms of disk time overlapped:
	// the per-array sum (disk time less every stall, hand-off latencies
	// included) stays positive on a host that hiccups for a millisecond.
	slowNet := func(rank int, c mpi.Comm) mpi.Comm {
		if rank < cfg.NumClients {
			return &lagComm{endpoint: asEndpoint(c), lag: 5 * time.Millisecond}
		}
		return c
	}
	errs, stats := runOverTCP(t, cfg, slowNet, func(cl *Client) error {
		return cl.WriteArrays("", specs, makeBufs(cl, specs, true))
	}, func(int) storage.Disk {
		return &slowDisk{Disk: storage.NewMemDisk(), first: queueFull}
	})

	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	st := stats[0]
	if st.OverlapNanos <= 0 {
		t.Errorf("OverlapNanos = %d, want > 0 (two sub-chunks pulled while the disk was busy)", st.OverlapNanos)
	}
	if st.StallNanos <= 0 {
		t.Errorf("StallNanos = %d, want > 0 (a hand-off into a full write window)", st.StallNanos)
	}
}

// TestOpSummaryCallback checks the per-operation OpLog summaries: one
// per operation per server, with plausible byte counts and outcomes.
func TestOpSummaryCallback(t *testing.T) {
	cfg := Config{NumClients: 2, NumServers: 2, SubchunkBytes: 16 << 10}
	specs := []ArraySpec{mustSpec1D(t, "sum", 256<<10, cfg.NumClients, cfg.NumServers)}

	var mu sync.Mutex
	var sums []OpSummary
	cfg.OpLog = func(s OpSummary) {
		mu.Lock()
		sums = append(sums, s)
		mu.Unlock()
	}
	if err := RunReal(cfg, memDisks(cfg.NumServers), func(cl *Client) error {
		bufs := makeBufs(cl, specs, true)
		if err := cl.WriteArrays("", specs, bufs); err != nil {
			return err
		}
		return cl.ReadArrays("", specs, makeBufs(cl, specs, false))
	}); err != nil {
		t.Fatal(err)
	}

	if len(sums) != 4 { // 2 ops x 2 servers
		t.Fatalf("got %d summaries, want 4: %+v", len(sums), sums)
	}
	var wrote, read int64
	for _, s := range sums {
		if s.Err != nil {
			t.Errorf("summary reports failure: %+v", s)
		}
		if s.Elapsed <= 0 {
			t.Errorf("non-positive elapsed: %+v", s)
		}
		switch s.Op {
		case "write":
			wrote += s.Bytes
		case "read":
			read += s.Bytes
		default:
			t.Errorf("unknown op %q", s.Op)
		}
	}
	if want := specs[0].TotalBytes(); wrote != want || read != want {
		t.Errorf("summaries account for %d written / %d read bytes, want %d", wrote, read, want)
	}
}

// TestOpSummaryJSONRoundTrips pins the OpSummary field set (the
// per-operation counters travel inside Stats): a rename breaks operator
// tooling that scrapes the daemon's events.
func TestOpSummaryJSONRoundTrips(t *testing.T) {
	s := OpSummary{Server: 1, Seq: 2, Op: "write", Bytes: 3 << 20, Elapsed: time.Second, Stats: Stats{Retries: 4, Timeouts: 5}}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"Server", "Seq", "Op", "Bytes", "Elapsed", "Retries", "Timeouts"} {
		if !strings.Contains(string(data), key) {
			t.Errorf("OpSummary JSON lost field %s: %s", key, data)
		}
	}
}

// TestTrackTableBoundedByConcurrency: a resident node's flight recorder
// must not grow with the operations it has served. Executors record on
// reusable lanes, so 2,000 operations leave the track table — and the
// metadata a dump opens with — exactly where the first 20 left it.
func TestTrackTableBoundedByConcurrency(t *testing.T) {
	cfg := schedCfg(2, 2, 2)
	rec := obs.NewRecorder(1 << 10)
	cfg.Trace = rec
	specs := [][]ArraySpec{{schedSpec("la", 2)}, {schedSpec("lb", 2)}}
	metadata := func() (n int) {
		tracks, events, _ := rec.Snapshot()
		for _, e := range obs.ChromeTraceFromSnapshot(tracks, events).TraceEvents {
			if e.Ph == "M" {
				n++
			}
		}
		return n
	}

	var tracks20, meta20 int
	_, err := RunSim(cfg, mpi.SP2Link(), func(i int, clk clock.Clock) storage.Disk {
		return storage.NewSimDisk(storage.NewMemDisk(), storage.SP2AIX(), clk) // overwrites read manifests back
	}, func(cl *Client) error {
		bufs := [][][]byte{makeBufs(cl, specs[0], true), makeBufs(cl, specs[1], true)}
		for round := 0; round < 1000; round++ {
			var hs [2]*OpHandle
			for i := range hs {
				h, err := cl.SubmitWrite("", "", specs[i], bufs[i])
				if err != nil {
					return err
				}
				hs[i] = h
			}
			for _, h := range hs {
				if err := h.Await(); err != nil {
					return fmt.Errorf("round %d: %w", round, err)
				}
			}
			if round == 9 && cl.Rank() == 0 {
				tracks20, meta20 = len(rec.TrackNames()), metadata()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rec.TrackNames()); got != tracks20 {
		t.Errorf("track table grew from %d entries after 20 ops to %d after 2,000: %v", tracks20, got, rec.TrackNames()[tracks20:min(got, tracks20+4)])
	}
	if got := metadata(); got != meta20 {
		t.Errorf("a dump opens with %d metadata records after 2,000 ops, %d after 20", got, meta20)
	}
	// Two clients and two servers, each with its main track (lane 0) and
	// a second lane, plus a storage track per server.
	if want := 2*2 + 2*3; tracks20 != want {
		t.Errorf("%d tracks after 20 ops, want %d: %v ...", tracks20, want, rec.TrackNames()[:min(tracks20, 16)])
	}
}
