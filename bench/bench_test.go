package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"panda/internal/mpi"
	"panda/internal/obs"
	"panda/internal/storage"
)

// These tests assert structure and correctness only, never a timing.

// TestMain lets the test binary stand in for the benchmark binary: a
// parent under test starts children of itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestMedianAndQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{7}, 0.99, 7},
		{[]float64{0, 10}, 0.25, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
	} {
		if got := quantile(tc.xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// The paired estimator is the median of per-iteration ratios, which a
// drifting host leaves alone, not the ratio of medians, which it moves.
func TestRatioMedianIsPerIteration(t *testing.T) {
	ref := []float64{10, 10, 30, 0}
	op := []float64{20, 40, 30, 5} // ratios 0.5, 0.25, 1, and one skipped
	if got := ratioMedian(ref, op); got != 0.5 {
		t.Errorf("ratioMedian = %v, want 0.5", got)
	}
	if ratioOfMedians := median(ref[:3]) / median(op[:3]); ratioOfMedians == 0.5 {
		t.Error("test data does not tell the two estimators apart")
	}
}

func TestTailPercentKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{5: 50, 20: 50, 39: 50, 40: 75, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercent(n); got != want {
			t.Errorf("tailPercent(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestParseProcIO(t *testing.T) {
	const text = "rchar: 123\nwchar: 45\nsyscr: 6\nsyscw: 7\nread_bytes: 4096\nwrite_bytes: 0\ncancelled_write_bytes: 0\n"
	got, err := parseProcIO(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if want := (procIO{rchar: 123, wchar: 45, syscr: 6, syscw: 7}); got != want {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
	if got.bytes() != 168 || got.syscalls() != 13 {
		t.Errorf("bytes %d syscalls %d, want 168 and 13", got.bytes(), got.syscalls())
	}
	if _, err := parseProcIO(strings.NewReader("rchar: 1\nwchar: 2\n")); err == nil {
		t.Error("a file without syscr and syscw parsed")
	}
	if _, err := parseProcIO(strings.NewReader("rchar: x\nwchar: 2\nsyscr: 6\nsyscw: 7\n")); err == nil {
		t.Error("a non-numeric field parsed")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 140}, {130, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"sticking out", []interval{{50, 110}, {190, 300}}, 80},
		{"outside", []interval{{0, 100}, {200, 250}}, 100},
		{"covering", []interval{{0, 300}}, 0},
		{"unsorted", []interval{{150, 160}, {110, 155}}, 50},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

// The reference op is a yardstick only if it costs what it says: a write
// of n bytes is 5n + 34 bytes of syscall I/O — 8+n bytes written by the
// sender, read and written by the relay and read by the sink, n written
// to the file, one byte of acknowledgement written and read — and a read
// is 5n + 32: the request over both hops, n read from the file, and n
// written and read on each hop back.
func TestRefMovesFiveBytesPerByte(t *testing.T) {
	ref, err := newRefPath(t.TempDir(), 3*mib)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.read(1); err == nil {
		t.Error("ref read a file nothing was written to")
	}
	if _, err := ref.write(3 * mib); err != nil {
		t.Fatal(err)
	}
	measure := func(f func()) int64 {
		before, err := readProcIO()
		if err != nil {
			t.Fatal(err)
		}
		f()
		after, err := readProcIO()
		if err != nil {
			t.Fatal(err)
		}
		return after.sub(before).bytes()
	}
	for _, dir := range []struct {
		name  string
		op    func(int) (time.Duration, error)
		fixed int
	}{{"write", ref.write, 34}, {"read", ref.read, 32}} {
		for _, n := range []int{1, mib, 3*mib - 5} {
			want := int64(5*n + dir.fixed)
			var got int64
			// Reading the counters is itself counted; a retry covers the rare
			// run in which that reading changes length between snapshots.
			for try := 0; try < 3 && got != want; try++ {
				snapshot := measure(func() {})
				got = measure(func() {
					if _, err := dir.op(n); err != nil {
						t.Fatal(err)
					}
				}) - snapshot
			}
			if got != want {
				t.Errorf("ref %s of %d bytes moved %d bytes of syscall I/O, want %d", dir.name, n, got, want)
			}
		}
		if _, err := dir.op(3*mib + 1); err == nil {
			t.Errorf("ref %s moved more bytes than its path was sized for", dir.name)
		}
	}
}

func testOpts(t *testing.T) runOpts {
	return runOpts{seed: 1, seconds: 1, quick: true, dataRoot: t.TempDir()}
}

// A quick pass of every workload: both children finish, every read is
// bit-exact, every scrub clean, and every end-to-end metric comes out a
// positive number.
func TestQuickPassOfEveryWorkload(t *testing.T) {
	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			opts := testOpts(t)
			run := runChildren(def, opts, minChildren, false)
			if err := checkSurvivors(run); err != nil {
				t.Fatal(err)
			}
			if run.failed != 0 || len(run.incorrect) != 0 || len(run.errs) != 0 {
				t.Fatalf("failed %d, incorrect %v, errors %v", run.failed, run.incorrect, run.errs)
			}
			steps := 2 * (quickWarm + quickIters + countPairs)
			if def.twoSessions {
				steps++
			}
			if want := quickChildren * steps * def.opsPerStep(); run.attempted != want {
				t.Errorf("attempted %d ops, want %d", run.attempted, want)
			}
			for _, c := range run.children {
				if len(c.Phases) != 2*quickIters {
					t.Errorf("child timed %d steps, want %d", len(c.Phases), 2*quickIters)
				}
				if len(c.Spans) != 0 {
					t.Error("a child of the end-to-end run recorded spans")
				}
			}
			values := endToEndValues(run)
			for _, m := range endToEnd {
				if v := values[m.name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", m.name, v)
				}
			}
			entries, err := os.ReadDir(opts.dataRoot)
			if err != nil || len(entries) != 0 {
				t.Errorf("children left %d entries behind (%v)", len(entries), err)
			}
		})
	}
}

// Spans-on children report every public call with its parent and op,
// and the trace they make is one cmd/pandatrace accepts.
func TestSpansOnChildAndChromeTrace(t *testing.T) {
	def := workloadByName("mixed_tenants")
	opts := testOpts(t)
	run := runChildren(def, opts, traceChildren, true)
	if err := checkSurvivors(run); err != nil {
		t.Fatal(err)
	}
	values := map[string]float64{}
	childLayerValues(run, values)
	for _, call := range []string{"start_daemon", "dial", "create", "first_run"} {
		if !(values["panda."+call+"_ms"] > 0) {
			t.Errorf("panda.%s_ms = %v", call, values["panda."+call+"_ms"])
		}
	}
	if !(values["panda.msgs_per_op"] > 0) {
		t.Errorf("panda.msgs_per_op = %v", values["panda.msgs_per_op"])
	}
	spans := run.children[0].Spans
	ids := map[int]bool{}
	for _, s := range spans {
		ids[s.ID] = true
	}
	ops := 0
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d (%s) names parent %d, which is no span", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Name == "write" || s.Name == "read" {
			ops++
			if s.Op == 0 {
				t.Errorf("op span %d carries no op identifier", s.ID)
			}
		}
	}
	if ops == 0 {
		t.Error("no op spans recorded")
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, map[string][]span{"child": spans}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ParseChromeTrace(data)
	if err != nil {
		t.Fatalf("the validator behind pandatrace -check rejects the trace: %v", err)
	}
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		for _, key := range []string{"id", "parent", "op"} {
			if _, ok := e.Args[key]; !ok {
				t.Fatalf("trace event %q has no %s", e.Name, key)
			}
		}
	}
}

// A decorator that changed what it times would measure another program:
// decorated and bare, a deployment sends the same number of messages
// and ships the same number of them without a payload copy.
func TestDecoratorsDoNotChangeTheProgram(t *testing.T) {
	for _, reorg := range []bool{false, true} {
		bare, err := runCollective(t.TempDir(), collectiveCfg{reorg: reorg}, 1)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runCollective(t.TempDir(), collectiveCfg{reorg: reorg, decorate: true}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if bare.msgsSent == 0 {
			t.Fatalf("reorg=%v: bare run counted no messages", reorg)
		}
		if traced.msgsSent != bare.msgsSent || traced.framesCoalesced != bare.framesCoalesced {
			t.Errorf("reorg=%v: decorated %d messages / %d coalesced, bare %d / %d", reorg,
				traced.msgsSent, traced.framesCoalesced, bare.msgsSent, bare.framesCoalesced)
		}
		if len(bare.spans) != 0 {
			t.Error("the bare run recorded spans")
		}
		b := breakdown(traced.spans, traced.roots[0])
		for _, key := range []string{"op_ms", "client_send_ms", "server_recv_wait_ms", "server_disk_ms", "msgs", "disk_calls", "disk_syncs"} {
			if !(b[key] > 0) {
				t.Errorf("reorg=%v: write breakdown %s = %v", reorg, key, b[key])
			}
		}
		if b["client_self_ms"] < 0 || b["server_self_ms"] < 0 {
			t.Errorf("reorg=%v: negative self time: %v", reorg, b)
		}
	}
}

// plainComm is an endpoint with none of the optional interfaces;
// richComm has all three. Both record what reached them.
type plainComm struct {
	calls []string
	frame []byte
}

func (c *plainComm) Rank() int               { return 0 }
func (c *plainComm) Size() int               { return 2 }
func (c *plainComm) Send(_, _ int, _ []byte) { c.calls = append(c.calls, "Send") }
func (c *plainComm) Isend(_, _ int, _ []byte) mpi.Request {
	c.calls = append(c.calls, "Isend")
	return nil
}
func (c *plainComm) SendOwned(_, _ int, data []byte) {
	c.calls = append(c.calls, "SendOwned")
	c.frame = data
}
func (c *plainComm) Recv(_, _ int) mpi.Message {
	c.calls = append(c.calls, "Recv")
	return mpi.Message{Tag: 7}
}

type richComm struct{ plainComm }

func (c *richComm) SendVec(_, _ int, _, _ []byte) bool {
	c.calls = append(c.calls, "SendVec")
	return true
}
func (c *richComm) RecvTimeout(_, _ int, _ time.Duration) (mpi.Message, error) {
	c.calls = append(c.calls, "RecvTimeout")
	return mpi.Message{}, mpi.ErrTimeout
}
func (c *richComm) PeerLost(rank int) bool {
	c.calls = append(c.calls, "PeerLost")
	return rank == 1
}

// The Comm decorator forwards every optional interface its inner
// endpoint has, and without one behaves as the caller would have on
// finding none.
func TestSpanCommForwardsOptionalInterfaces(t *testing.T) {
	rec := newRecorder()
	rich := &richComm{}
	var c mpi.Comm = &spanComm{inner: rich, lane: &lane{rec: rec, track: "t"}}
	if !mpi.SendSegments(c, 1, 0, []byte("h"), []byte("p")) {
		t.Error("SendVec of the inner endpoint not used")
	}
	if _, err := c.(mpi.DeadlineComm).RecvTimeout(1, 0, time.Second); err != mpi.ErrTimeout {
		t.Errorf("RecvTimeout returned %v, want the inner endpoint's error", err)
	}
	if pc := c.(mpi.PeerChecker); !pc.PeerLost(1) || pc.PeerLost(0) {
		t.Error("PeerLost not forwarded")
	}
	if got := strings.Join(rich.calls, " "); got != "SendVec RecvTimeout PeerLost PeerLost" {
		t.Errorf("inner endpoint saw %q", got)
	}

	plain := &plainComm{}
	c = &spanComm{inner: plain, lane: &lane{rec: rec, track: "t"}}
	if mpi.SendSegments(c, 1, 0, []byte("h"), []byte("p")) {
		t.Error("a send that had to flatten its segments claims it did not")
	}
	if string(plain.frame) != "hp" {
		t.Errorf("flattened frame %q, want \"hp\"", plain.frame)
	}
	if m, err := c.(mpi.DeadlineComm).RecvTimeout(1, 0, time.Second); err != nil || m.Tag != 7 {
		t.Errorf("RecvTimeout over an endpoint without deadlines returned %v, %v", m, err)
	}
	if c.(mpi.PeerChecker).PeerLost(1) {
		t.Error("an endpoint that cannot observe peers reports one lost")
	}
	if got := strings.Join(plain.calls, " "); got != "SendOwned Recv" {
		t.Errorf("inner endpoint saw %q", got)
	}
	names := map[string]int{}
	for _, s := range rec.snapshot() {
		names[s.Name]++
	}
	if names[spanSend] != 2 || names[spanRecv] != 2 {
		t.Errorf("spans recorded: %v", names)
	}
}

// The Disk decorator hands out files that still sync and report their
// size, and records every call.
func TestSpanDiskForwardsSyncAndSize(t *testing.T) {
	rec := newRecorder()
	var d storage.Disk = &spanDisk{inner: storage.NewMemDisk(), lane: &lane{rec: rec, track: "t"}}
	f, err := d.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, err := f.Size(); err != nil || n != 3 {
		t.Errorf("Size = %d, %v", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if names, err := d.List(); err != nil || len(names) != 1 {
		t.Errorf("List = %v, %v", names, err)
	}
	var got []string
	for _, s := range rec.snapshot() {
		got = append(got, s.Name)
	}
	if want := "disk.create disk.write disk.sync disk.size disk.close disk.list"; strings.Join(got, " ") != want {
		t.Errorf("spans %v, want %s", got, want)
	}
}

// A child that gives no result counts as one failed op and the parent
// carries on; too few survivors fail the run.
func TestChildFailuresAreCounted(t *testing.T) {
	opts := testOpts(t)
	unknown := &workloadDef{name: "no_such_workload"}
	run := runChildren(unknown, opts, minChildren, false)
	if run.started != quickChildren || run.attempted != quickChildren || run.failed != quickChildren || len(run.children) != 0 {
		t.Errorf("started %d attempted %d failed %d finished %d, want %d %d %d 0",
			run.started, run.attempted, run.failed, len(run.children), quickChildren, quickChildren, quickChildren)
	}
	if err := checkSurvivors(run); err == nil {
		t.Error("a run with no surviving child passed")
	}
}

func TestRefuseLiveChildren(t *testing.T) {
	root := t.TempDir()
	live := exec.Command("sh", "-c", "sleep 30", "-child")
	if err := live.Start(); err != nil {
		t.Skip(err)
	}
	dir := filepath.Join(root, childDirPrefix+strconv.Itoa(live.Process.Pid))
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := refuseLiveChildren(root); err == nil {
		t.Error("started beside a live child")
	}
	live.Process.Kill() //nolint:errcheck // it is ours and running
	live.Wait()         //nolint:errcheck // killed
	if err := refuseLiveChildren(root); err != nil {
		t.Errorf("a dead child's directory stops the run: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Error("a dead child's directory was not swept")
	}
}

// BENCHMARK.json is generated from the metric tables (-describe); the
// committed file must be what the code measures.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(describe(), &want); err != nil {
		t.Fatal(err)
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if string(g) != string(w) {
		t.Errorf("BENCHMARK.json differs from `bench -describe`; regenerate it")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
}
