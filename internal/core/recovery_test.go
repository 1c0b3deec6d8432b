package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// recovery_test.go pins the crash-consistency contract of commit-mode
// writes: a server death at ANY point of a collective write leaves the
// disks serving either the complete previous epoch or the complete new
// one — never a mix — with the damage visible to (and repairable by)
// the scrubber, and the deployment able to fail over around a dead
// server when the clients retry.

// recoverySpecs builds a small reorganizing deployment where both
// servers own data, so every crash point is reachable on every server.
func recoverySpecs(clients, servers int) (Config, []ArraySpec) {
	cfg := Config{
		NumClients:    clients,
		NumServers:    servers,
		SubchunkBytes: 256,
		OpTimeout:     1200 * time.Millisecond,
		PullRetries:   1,
	}
	shape := []int{16, 16}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{clients, 1})
	disk := array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{servers})
	return cfg, []ArraySpec{{Name: "recov", ElemSize: 4, Mem: mem, Disk: disk}}
}

// xorFill returns every spec buffer filled with the reference pattern
// XORed by key — a distinguishable "new epoch" payload.
func xorFill(cl *Client, specs []ArraySpec, key byte) [][]byte {
	bufs := makeBufs(cl, specs, true)
	for _, b := range bufs {
		for i := range b {
			b[i] ^= key
		}
	}
	return bufs
}

// matchEpoch reports which XOR key in keys the read-back buffers match
// in full, or -1 for a mix (the crash-consistency violation).
func matchEpoch(cl *Client, specs []ArraySpec, got [][]byte, keys []byte) int {
	for ki, key := range keys {
		want := xorFill(cl, specs, key)
		all := true
		for i := range got {
			if string(got[i]) != string(want[i]) {
				all = false
				break
			}
		}
		if all {
			return ki
		}
	}
	return -1
}

// artifactDir returns the PANDA_RECOVERY_OUT subdirectory for a test
// case, or "" when artifact dumping is off.
func artifactDir(t *testing.T, caseName string) string {
	root := os.Getenv("PANDA_RECOVERY_OUT")
	if root == "" {
		return ""
	}
	dir := filepath.Join(root, caseName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("artifact dir: %v", err)
	}
	return dir
}

// dumpManifests writes every manifest on every disk as JSON into dir.
func dumpManifests(t *testing.T, dir string, disks []storage.Disk) {
	for i, d := range disks {
		names, err := d.List()
		if err != nil {
			t.Fatalf("artifact list: %v", err)
		}
		for _, n := range names {
			if !strings.HasSuffix(n, ".mfst") {
				continue
			}
			m, err := storage.ReadManifest(d, n)
			if err != nil {
				continue // torn manifests are expected artifacts too
			}
			blob, err := json.MarshalIndent(m, "", "  ")
			if err != nil {
				t.Fatalf("artifact marshal: %v", err)
			}
			out := filepath.Join(dir, fmt.Sprintf("ion%d-%s.json", i, n))
			if err := os.WriteFile(out, blob, 0o644); err != nil {
				t.Fatalf("artifact write: %v", err)
			}
		}
	}
}

// dumpTrace writes rec's Chrome trace JSON into dir.
func dumpTrace(t *testing.T, dir, name string, rec *obs.Recorder) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatalf("artifact trace: %v", err)
	}
	defer f.Close()
	if err := rec.WriteChromeTrace(f); err != nil {
		t.Fatalf("artifact trace: %v", err)
	}
}

// TestCrashPointSweep kills one server at every staged point of the
// commit protocol — plan, pull, sync, prepare, decide, commit — on top
// of a committed prior epoch, and asserts the invariant: the scrubber
// passes, and a healed deployment reads back either the old epoch or
// the new one bit-exact on every rank. The interrupted write is the
// key's second epoch, which recycles nothing; the "recycled-" arm
// writes epochs 1 and 2 in the same run as the interrupted epoch 3, so
// every server holds its own commit's retained pair and the crash
// interrupts a staging that overwrites it.
func TestCrashPointSweep(t *testing.T) {
	points := []string{"plan", "pull", "sync", "prepare", "decide", "commit"}
	for _, arm := range []string{"", "recycled-"} {
		for victim := 0; victim < 2; victim++ {
			for _, point := range points {
				if point == "decide" && victim != 0 {
					continue // only the master server decides
				}
				arm, victim, point := arm, victim, point
				t.Run(fmt.Sprintf("%sserver%d-%s", arm, victim, point), func(t *testing.T) {
					t.Parallel()
					crashSweepCase(t, arm, victim, point)
				})
			}
		}
	}
}

func crashSweepCase(t *testing.T, arm string, victim int, point string) {
	recycled := arm != ""
	cfg, specs := recoverySpecs(3, 2)
	disks := memDisks(cfg.NumServers)

	const oldKey, newKey = 0x00, 0xFF
	if !recycled {
		// Epoch 1: a clean committed checkpoint.
		if _, err := RunWith(cfg, plainComms(cfg), disks, func(cl *Client) error {
			return cl.WriteArrays(".ckpt", specs, xorFill(cl, specs, oldKey))
		}); err != nil {
			t.Fatalf("seed epoch: %v", err)
		}
	}

	// The same checkpoint with new data, interrupted by a server death
	// at the swept point: epoch 2, or with recycled epoch 3 after epochs
	// 1 and 2 in the same run.
	rec := obs.NewRecorder(0)
	crashCfg := cfg
	crashCfg.Trace = rec
	var armed, fired atomic.Bool
	armed.Store(!recycled)
	crashCfg.crashHook = func(server int, p string) error {
		if armed.Load() && server == victim && p == point && fired.CompareAndSwap(false, true) {
			return errors.New("injected crash")
		}
		return nil
	}
	werrs := make([]error, cfg.NumClients)
	_, runErr := RunWith(crashCfg, plainComms(cfg), disks, func(cl *Client) error {
		if recycled {
			for _, key := range []byte{0x11, oldKey} {
				if err := cl.WriteArrays(".ckpt", specs, xorFill(cl, specs, key)); err != nil {
					return fmt.Errorf("seed epoch %#x: %w", key, err)
				}
			}
			if cl.Rank() == 0 {
				armed.Store(true) // every server has committed epoch 2
			}
		}
		werrs[cl.Rank()] = cl.WriteArrays(".ckpt", specs, xorFill(cl, specs, newKey))
		return nil
	})
	if !fired.Load() {
		t.Fatalf("crash point %q never fired on server %d", point, victim)
	}
	if runErr == nil {
		t.Fatal("the killed server's Serve returned nil")
	}
	for rank, werr := range werrs {
		typedOrNil(t, rank, "interrupted write", werr)
	}

	// The scrubber must judge the directory healthy (crash
	// debris is warn-level), and repair must leave it spotless.
	rep, err := storage.Scrub(disks, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("scrub found unrecoverable damage: %+v", rep.Issues)
	}
	if dir := artifactDir(t, fmt.Sprintf("sweep-%sserver%d-%s", arm, victim, point)); dir != "" {
		dumpManifests(t, dir, disks)
		dumpTrace(t, dir, "crash-run.trace.json", rec)
	}
	if _, err := storage.Scrub(disks, true); err != nil {
		t.Fatal(err)
	}
	again, err := storage.Scrub(disks, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Issues) != 0 {
		t.Fatalf("issues survived repair: %+v", again.Issues)
	}

	// A healed deployment must read one complete epoch.
	epochs := make([]int, cfg.NumClients)
	if _, err := RunWith(cfg, plainComms(cfg), disks, func(cl *Client) error {
		got := makeBufs(cl, specs, false)
		if rerr := cl.ReadArrays(".ckpt", specs, got); rerr != nil {
			return fmt.Errorf("healed read: %w", rerr)
		}
		epochs[cl.Rank()] = matchEpoch(cl, specs, got, []byte{oldKey, newKey})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for rank, e := range epochs {
		if e < 0 {
			t.Fatalf("rank %d read a mix of epochs after a %s crash", rank, point)
		}
		if e != epochs[0] {
			t.Fatalf("ranks disagree on the served epoch: %v", epochs)
		}
	}
	t.Logf("server %d crash at %s: served the %s epoch", victim, point,
		[]string{"old", "new"}[epochs[0]])
}

// plainComms builds one in-process world with no fault injection.
func plainComms(cfg Config) []mpi.Comm {
	world := mpi.NewWorld(cfg.WorldSize())
	comms := make([]mpi.Comm, cfg.WorldSize())
	for r := range comms {
		comms[r] = world.Comm(r)
	}
	return comms
}

// TestReassignmentCompletesDegraded kills a non-master server before a
// checkpoint and asserts failover: the clients' retry policy rides out
// the first attempt's loss, the master replans the dead server's chunks
// onto the survivor, the operation completes degraded (visible in Stats
// and the trace), and the data reads back bit-exact from the survivors.
func TestReassignmentCompletesDegraded(t *testing.T) {
	cfg, specs := recoverySpecs(3, 2)
	cfg.Retry = RetryPolicy{Max: 3, Backoff: 20 * time.Millisecond, Jitter: 0.2}
	rec := obs.NewRecorder(0)
	cfg.Trace = rec
	plan := mpi.NewFaultPlan(5)
	comms := wrapWorld(cfg, plan)
	disks := memDisks(cfg.NumServers)
	victim := cfg.ServerRank(1)

	barrier := newBarrier(cfg.NumClients)
	var servers []*Server
	var mu sync.Mutex
	clk := clock.NewReal()
	var wg sync.WaitGroup
	errs := make([]error, cfg.WorldSize())
	for r := 0; r < cfg.NumClients; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = runClientNode(cfg, comms[r], func(cl *Client) error {
				barrier()
				if cl.Rank() == 0 {
					plan.CrashRank(victim)
				}
				barrier()
				if werr := cl.WriteArrays(".ckpt", specs, makeBufs(cl, specs, true)); werr != nil {
					return fmt.Errorf("degraded write: %w", werr)
				}
				got := makeBufs(cl, specs, false)
				if rerr := cl.ReadArrays(".ckpt", specs, got); rerr != nil {
					return fmt.Errorf("degraded read: %w", rerr)
				}
				return checkBufs(cl, specs, got)
			})
		}(r)
	}
	for i := 0; i < cfg.NumServers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rank := cfg.ServerRank(i)
			srv := NewServer(cfg, comms[rank], disks[i], clk)
			mu.Lock()
			servers = append(servers, srv)
			mu.Unlock()
			errs[rank] = srv.Serve()
		}(i)
	}
	wg.Wait()
	for r, err := range errs {
		if r == victim {
			continue // the injected death surfaces however the transport saw it
		}
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	var reassigns, degraded int64
	for _, srv := range servers {
		st := srv.Stats()
		reassigns += st.Reassigns
		degraded += st.Degraded
	}
	if reassigns == 0 {
		t.Error("no chunk reassignment recorded; the failover path never ran")
	}
	if degraded == 0 {
		t.Error("no operation recorded as degraded")
	}
	recoverSpans := 0
	for _, e := range rec.Events() {
		if e.Cat == obs.CatRecover {
			recoverSpans++
		}
	}
	if recoverSpans == 0 {
		t.Error("no CatRecover events in the trace")
	}
	if dir := artifactDir(t, "reassignment"); dir != "" {
		dumpManifests(t, dir, disks)
		dumpTrace(t, dir, "failover.trace.json", rec)
	}
	t.Logf("reassigns=%d degraded=%d recover-spans=%d", reassigns, degraded, recoverSpans)
}

// requestTap is the master client's endpoint in the whole-op retry
// tests: copies says how many copies of the n-th operation request it
// sends (from 1) go out — 0 loses it. An interposer: it must see every
// request, so it has no Unwrap.
type requestTap struct {
	endpoint
	n      atomic.Int32
	copies func(n int32) int
}

func (c *requestTap) SendOwned(to, tag int, data []byte) {
	if tag != tagControl || len(data) == 0 || data[0] != msgOpRequest {
		c.endpoint.SendOwned(to, tag, data)
		return
	}
	for k := c.copies(c.n.Add(1)); k > 0; k-- {
		c.endpoint.Send(to, tag, data)
	}
}

// runRetried runs app on a fixed-shape deployment over one in-process
// world whose master client sends through tap, every node its own
// goroutine, and returns the servers.
func runRetried(t *testing.T, cfg Config, tap *requestTap, disks []storage.Disk, app App) []*Server {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	comms := plainComms(cfg)
	tap.endpoint = asEndpoint(comms[0])
	comms[0] = tap
	clk := clock.NewReal()
	servers := make([]*Server, cfg.NumServers)
	errs := make([]error, cfg.WorldSize())
	var wg sync.WaitGroup
	for i := range servers {
		rank := cfg.ServerRank(i)
		servers[i] = NewServer(cfg, comms[rank], disks[i], clk)
		wg.Add(1)
		go func() { defer wg.Done(); errs[rank] = servers[i].Serve() }()
	}
	for r := 0; r < cfg.NumClients; r++ {
		wg.Add(1)
		go func() { defer wg.Done(); errs[r] = clientMain(cfg, comms[r], clk, app) }()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return servers
}

// writeReadBack is the retry tests' application: one write, read back
// bit-exact.
func writeReadBack(specs []ArraySpec) App {
	return func(cl *Client) error {
		if err := cl.WriteArrays(".ckpt", specs, makeBufs(cl, specs, true)); err != nil {
			return fmt.Errorf("write: %w", err)
		}
		got := makeBufs(cl, specs, false)
		if err := cl.ReadArrays(".ckpt", specs, got); err != nil {
			return fmt.Errorf("read: %w", err)
		}
		return checkBufs(cl, specs, got)
	}
}

// TestWholeOpRetryThroughRouter: whole-op retries compose with any
// MaxInflight. The master client's first request is lost; every client
// times out and retries the same seq as attempt 1, which the routers
// admit and complete, bit-exact; a second delivery of attempt 1 is a
// duplicate, rejected and counted.
func TestWholeOpRetryThroughRouter(t *testing.T) {
	for _, inflight := range []int{0, 2} {
		t.Run(fmt.Sprintf("MaxInflight=%d", inflight), func(t *testing.T) {
			t.Parallel()
			cfg, specs := recoverySpecs(2, 2)
			cfg.OpTimeout = 300 * time.Millisecond
			cfg.Retry = RetryPolicy{Max: 1, Backoff: 10 * time.Millisecond}
			cfg.Sched.MaxInflight = inflight
			tap := &requestTap{copies: func(n int32) int { return []int{1, 0, 2, 1}[n] }}
			servers := runRetried(t, cfg, tap, memDisks(cfg.NumServers), writeReadBack(specs))
			if n := tap.n.Load(); n != 3 {
				t.Errorf("the master client sent %d requests, want 3: the write twice, the read once", n)
			}
			if got := servers[0].Stats().FramesRejected; got != 1 {
				t.Errorf("master server FramesRejected = %d, want 1: the duplicate of attempt 1", got)
			}
		})
	}
}

// gatedDisk holds its first Create until gate closes.
type gatedDisk struct {
	storage.Disk
	gate chan struct{}
	once sync.Once
}

func (d *gatedDisk) Create(name string) (storage.File, error) {
	d.once.Do(func() { <-d.gate })
	return d.Disk.Create(name)
}

// TestRetryWaitsForLiveAttempt: a retry that reaches a server still
// running the attempt it replaces waits for that attempt to retire —
// the old attempt runs out its deadline first — and then runs. Attempt
// 0's write is held at its first Create until well after attempt 1's
// request is in; the operation still completes, on attempt 1, after
// attempt 0.
func TestRetryWaitsForLiveAttempt(t *testing.T) {
	cfg, specs := recoverySpecs(2, 1)
	cfg.OpTimeout = 200 * time.Millisecond
	cfg.Retry = RetryPolicy{Max: 1, Backoff: 10 * time.Millisecond}
	disk := &gatedDisk{Disk: storage.NewMemDisk(), gate: make(chan struct{})}
	var mu sync.Mutex
	var dispatched []int
	cfg.dispatchHook = func(seq int) {
		mu.Lock()
		dispatched = append(dispatched, seq)
		mu.Unlock()
	}
	tap := &requestTap{copies: func(n int32) int {
		if n == 2 {
			// Attempt 1 leaves now; attempt 0 is stuck at the disk until
			// the router has long had it.
			time.AfterFunc(100*time.Millisecond, func() { close(disk.gate) })
		}
		return 1
	}}
	servers := runRetried(t, cfg, tap, []storage.Disk{disk}, writeReadBack(specs))
	if want := []int{0, 0, 1}; fmt.Sprint(dispatched) != fmt.Sprint(want) {
		t.Errorf("dispatched seqs %v, want %v: the write's two attempts, then the read", dispatched, want)
	}
	if got := servers[0].Stats().FramesRejected; got != 0 {
		t.Errorf("FramesRejected = %d: the retry was dropped, not held", got)
	}
}

// TestVerifyOnRestartDetectsTornSync arms a disk that lies about one
// Sync — data silently lost after a reported flush, a real power-cut
// failure mode. The commit protocol cannot see the lie, so the epoch
// commits; VerifyOnRestart must then turn the damage into a typed
// ErrCorrupt instead of serving it, and the scrubber must roll the
// checkpoint back to the intact prior epoch.
func TestVerifyOnRestartDetectsTornSync(t *testing.T) {
	cfg, specs := recoverySpecs(3, 2)
	cfg.VerifyOnRestart = true
	fd := &storage.FaultDisk{Inner: storage.NewMemDisk()}
	disks := []storage.Disk{fd, storage.NewMemDisk()}

	const oldKey, newKey = 0x00, 0xFF
	if _, err := RunWith(cfg, plainComms(cfg), disks, func(cl *Client) error {
		return cl.WriteArrays(".ckpt", specs, xorFill(cl, specs, oldKey))
	}); err != nil {
		t.Fatalf("seed epoch: %v", err)
	}

	fd.ArmTornSync()
	if _, err := RunWith(cfg, plainComms(cfg), disks, func(cl *Client) error {
		return cl.WriteArrays(".ckpt", specs, xorFill(cl, specs, newKey))
	}); err != nil {
		t.Fatalf("torn-sync write: %v", err) // the lie is invisible here
	}
	if fd.TornSyncs() == 0 {
		t.Fatal("the torn sync never bit")
	}

	if _, err := RunWith(cfg, plainComms(cfg), disks, func(cl *Client) error {
		got := makeBufs(cl, specs, false)
		rerr := cl.ReadArrays(".ckpt", specs, got)
		if !errors.Is(rerr, ErrCorrupt) {
			return fmt.Errorf("verified read of torn data returned %v, want ErrCorrupt", rerr)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// The scrubber sees the same damage and can fall back to epoch 1.
	rep, err := storage.Scrub(disks, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("scrub missed the committed-but-corrupt epoch")
	}
	rep, err = storage.Scrub(disks, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RolledBack == 0 {
		t.Fatalf("repair did not roll back: %+v", rep.Issues)
	}

	epochs := make([]int, cfg.NumClients)
	if _, err := RunWith(cfg, plainComms(cfg), disks, func(cl *Client) error {
		got := makeBufs(cl, specs, false)
		if rerr := cl.ReadArrays(".ckpt", specs, got); rerr != nil {
			return fmt.Errorf("post-repair read: %w", rerr)
		}
		epochs[cl.Rank()] = matchEpoch(cl, specs, got, []byte{oldKey, newKey})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for rank, e := range epochs {
		if e != 0 {
			t.Fatalf("rank %d: post-repair read served epoch index %d, want the intact old epoch", rank, e)
		}
	}
}

// TestConcurrentCheckpointCrashChaos repeatedly checkpoints while a
// deterministic schedule kills a server mid-operation at a different
// protocol depth each round. After every crash the scrubber must pass,
// and a clean deployment must read back SOME committed round's data
// bit-exact — the served round may only move forward over time.
func TestConcurrentCheckpointCrashChaos(t *testing.T) {
	const rounds = 6
	const seed = 20260806
	cfg, specs := recoverySpecs(3, 2)
	cfg.Retry = RetryPolicy{Max: 2, Backoff: 20 * time.Millisecond, Jitter: 0.2}
	disks := memDisks(cfg.NumServers)
	keys := make([]byte, rounds)
	for r := range keys {
		keys[r] = byte(r*37 + 11)
	}

	lastServed := -1
	for round := 0; round < rounds; round++ {
		plan := mpi.NewFaultPlan(seed + int64(round))
		comms := wrapWorld(cfg, plan)
		victim := cfg.ServerRank(round % cfg.NumServers)
		// Sweep the kill deeper into the protocol every round; the
		// victim's first sends of the operation are the plan forward and
		// the data pulls, the later ones the prepare/commit exchange.
		plan.CrashAfterSends(victim, round+1)

		werrs := make([]error, cfg.NumClients)
		_, _ = RunWith(cfg, comms, disks, func(cl *Client) error {
			werrs[cl.Rank()] = cl.WriteArrays(".ckpt", specs, xorFill(cl, specs, keys[round]))
			return nil
		})
		for rank, werr := range werrs {
			typedOrNil(t, rank, fmt.Sprintf("round %d write", round), werr)
		}

		rep, err := storage.Scrub(disks, false)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("round %d: scrub found unrecoverable damage: %+v", round, rep.Issues)
		}
		if _, err := storage.Scrub(disks, true); err != nil {
			t.Fatal(err)
		}

		// A clean deployment over the same disks must serve one complete
		// committed round, never older than what was served before.
		served := make([]int, cfg.NumClients)
		_, err = RunWith(cfg, plainComms(cfg), disks, func(cl *Client) error {
			got := makeBufs(cl, specs, false)
			rerr := cl.ReadArrays(".ckpt", specs, got)
			if rerr != nil {
				if lastServed < 0 && errors.Is(rerr, ErrNoCommittedEpoch) {
					served[cl.Rank()] = -1
					return nil // nothing has ever committed; a clean report
				}
				return fmt.Errorf("round %d verify read: %w", round, rerr)
			}
			m := matchEpoch(cl, specs, got, keys[:round+1])
			if m < 0 {
				return fmt.Errorf("round %d: rank %d read a mix of rounds", round, cl.Rank())
			}
			served[cl.Rank()] = m
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for rank, s := range served {
			if s != served[0] {
				t.Fatalf("round %d: ranks disagree on served round: %v", round, served)
			}
			if s == -1 && lastServed >= 0 {
				t.Fatalf("round %d: rank %d lost a previously committed round", round, rank)
			}
			if s >= 0 && lastServed >= 0 && s < lastServed {
				t.Fatalf("round %d: served round went backwards: %d after %d", round, s, lastServed)
			}
		}
		if served[0] >= 0 {
			lastServed = served[0]
		}
		t.Logf("round %d (victim rank %d, crash after %d sends): serving round %d",
			round, victim, round+1, served[0])
	}
	if lastServed < 0 {
		t.Fatal("no round ever committed across the whole schedule")
	}
}
