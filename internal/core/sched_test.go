package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"panda/internal/array"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// The scheduler conformance battery: deterministic virtual-time
// interleaves, a randomized-schedule checker (bit-exact data regardless
// of dispatch order), fairness properties on the DRR core, chaos
// coverage (per-op crashes, server death) proving one tenant's failure
// never corrupts or deadlocks another's operation, and frame-routing
// isolation for op-ID-scoped frames.

func schedCfg(clients, servers, inflight int) Config {
	return Config{
		NumClients:    clients,
		NumServers:    servers,
		SubchunkBytes: 1 << 10,
		Sched:         SchedConfig{MaxInflight: inflight},
	}
}

// keyOf is the conflict key of the file set named name.
func keyOf(name string) []uint64 {
	return conflictKeys(nil, opRequest{Specs: []ArraySpec{{Name: name}}})
}

// schedSpec builds one block-distributed 2D array spec named name.
func schedSpec(name string, clients int) ArraySpec {
	mesh := []int{clients, 1}
	sch := array.MustSchema([]int{4 * clients, 16}, []array.Dist{array.Block, array.Block}, mesh)
	return ArraySpec{Name: name, ElemSize: 4, Mem: sch, Disk: sch}
}

// TestSchedRoundTripBlockingAPI runs the ordinary blocking collective
// API with two operations allowed in flight: every WriteArrays/ReadArrays
// is a submit+await pair, and the data must round-trip bit-exact.
func TestSchedRoundTripBlockingAPI(t *testing.T) {
	cfg := schedCfg(4, 2, 2)
	sch := array.MustSchema([]int{16, 16}, []array.Dist{array.Block, array.Block}, []int{2, 2})
	roundTrip(t, cfg, []ArraySpec{{Name: "sched", ElemSize: 4, Mem: sch, Disk: sch}})
}

// TestSchedTwoOpsConcurrentBitExact keeps two independent collectives
// from different tenants in flight on a shared deployment and checks
// both land bit-exact. At MaxInflight 0 the submissions are the same,
// and the master serves them one at a time.
func TestSchedTwoOpsConcurrentBitExact(t *testing.T) {
	for _, inflight := range []int{0, 4} {
		t.Run(fmt.Sprintf("MaxInflight=%d", inflight), func(t *testing.T) {
			twoOpsBitExact(t, schedCfg(4, 2, inflight))
		})
	}
}

func twoOpsBitExact(t *testing.T, cfg Config) {
	specA := []ArraySpec{schedSpec("ta", 4)}
	specB := []ArraySpec{schedSpec("tb", 4)}
	disks := memDisks(cfg.NumServers)

	if err := RunReal(cfg, disks, func(cl *Client) error {
		ha, err := cl.SubmitWrite("alice", "", specA, makeBufs(cl, specA, true))
		if err != nil {
			return err
		}
		hb, err := cl.SubmitWrite("bob", "", specB, makeBufs(cl, specB, true))
		if err != nil {
			return err
		}
		if err := ha.Await(); err != nil {
			return fmt.Errorf("alice: %w", err)
		}
		if err := hb.Await(); err != nil {
			return fmt.Errorf("bob: %w", err)
		}
		return nil
	}); err != nil {
		t.Fatalf("concurrent writes: %v", err)
	}

	if err := RunReal(cfg, disks, func(cl *Client) error {
		bufsA := makeBufs(cl, specA, false)
		bufsB := makeBufs(cl, specB, false)
		ha, err := cl.SubmitRead("alice", "", specA, bufsA)
		if err != nil {
			return err
		}
		hb, err := cl.SubmitRead("bob", "", specB, bufsB)
		if err != nil {
			return err
		}
		if err := ha.Await(); err != nil {
			return err
		}
		if err := hb.Await(); err != nil {
			return err
		}
		if err := checkBufs(cl, specA, bufsA); err != nil {
			return err
		}
		return checkBufs(cl, specB, bufsB)
	}); err != nil {
		t.Fatalf("concurrent reads: %v", err)
	}
}

// TestSchedRandomizedInterleaveChecker is the linearizability-style
// checker: across randomized dispatch orders (Config.schedSeed shuffles
// the DRR visit order) three concurrent collectives must produce
// bit-exact data, and each seed must replay deterministically under
// virtual time.
func TestSchedRandomizedInterleaveChecker(t *testing.T) {
	specs := [][]ArraySpec{
		{schedSpec("ra", 4)},
		{schedSpec("rb", 4)},
		{schedSpec("rc", 4)},
	}
	tenants := []string{"t1", "t2", "t3"}
	for seed := int64(1); seed <= 5; seed++ {
		run := func() (SimResult, error) {
			cfg := schedCfg(4, 2, 3)
			cfg.schedSeed = seed
			cfg.Sched.Weights = map[string]int{"t1": 3, "t2": 2, "t3": 1}
			return RunSim(cfg, mpi.SP2Link(), func(i int, clk clock.Clock) storage.Disk {
				return storage.NewSimDisk(storage.NewMemDisk(), storage.SP2AIX(), clk)
			}, func(cl *Client) error {
				hs := make([]*OpHandle, len(specs))
				for i := range specs {
					h, err := cl.SubmitWrite(tenants[i], "", specs[i], makeBufs(cl, specs[i], true))
					if err != nil {
						return err
					}
					hs[i] = h
				}
				for i, h := range hs {
					if err := h.Await(); err != nil {
						return fmt.Errorf("op %d: %w", i, err)
					}
				}
				// Read everything back concurrently too.
				bufs := make([][][]byte, len(specs))
				for i := range specs {
					bufs[i] = makeBufs(cl, specs[i], false)
					h, err := cl.SubmitRead(tenants[i], "", specs[i], bufs[i])
					if err != nil {
						return err
					}
					hs[i] = h
				}
				for i, h := range hs {
					if err := h.Await(); err != nil {
						return fmt.Errorf("read op %d: %w", i, err)
					}
					if err := checkBufs(cl, specs[i], bufs[i]); err != nil {
						return err
					}
				}
				return nil
			})
		}
		a, err := run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := run()
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if a.Elapsed != b.Elapsed {
			t.Fatalf("seed %d not deterministic: %v vs %v", seed, a.Elapsed, b.Elapsed)
		}
	}
}

// TestSchedOverlapBeatsSerial is the acceptance gate in miniature: the
// same four-op workload through MaxInflight=4 must finish faster than
// through the serialized MaxInflight=1 baseline under the simulated
// SP2 deployment.
func TestSchedOverlapBeatsSerial(t *testing.T) {
	specs := make([][]ArraySpec, 4)
	for i := range specs {
		specs[i] = []ArraySpec{schedSpec(fmt.Sprintf("ov%d", i), 4)}
	}
	run := func(inflight int) time.Duration {
		cfg := schedCfg(4, 2, inflight)
		cfg.StartupOverhead = 13 * time.Millisecond
		res, err := RunSim(cfg, mpi.SP2Link(), simDiskFactory(storage.SP2AIX()), func(cl *Client) error {
			hs := make([]*OpHandle, len(specs))
			for i := range specs {
				h, err := cl.SubmitWrite("", "", specs[i], makeBufs(cl, specs[i], true))
				if err != nil {
					return err
				}
				hs[i] = h
			}
			for _, h := range hs {
				if err := h.Await(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("inflight %d: %v", inflight, err)
		}
		return res.Elapsed
	}
	serial, overlapped := run(1), run(4)
	if overlapped >= serial {
		t.Fatalf("no overlap win: inflight=4 took %v, serialized baseline %v", overlapped, serial)
	}
	t.Logf("serialized %v, overlapped %v (%.2fx)", serial, overlapped, float64(serial)/float64(overlapped))
}

// TestSchedFairnessConvergesToWeights drives the DRR core directly with
// random weight vectors, operation costs and completion patterns, and
// checks each backlogged tenant's dispatched-byte share converges to
// its configured weight share.
func TestSchedFairnessConvergesToWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 25; trial++ {
		nt := 2 + rng.Intn(4)
		weights := make(map[string]int, nt)
		tenants := make([]string, nt)
		for i := range tenants {
			tenants[i] = fmt.Sprintf("t%d", i)
			weights[tenants[i]] = 1 + rng.Intn(8)
		}
		cfg := SchedConfig{
			MaxInflight: 1 + rng.Intn(4),
			QueueDepth:  1 << 20,
			Weights:     weights,
			Quantum:     64 << 10,
		}
		sc := newSchedCore(&cfg, 0)
		nextName := 0
		refill := func() {
			for _, tn := range tenants {
				for len(sc.queues[tn]) < 2 {
					cost := int64(16<<10 + rng.Intn(2<<20))
					op := &schedOp{
						seq:    nextName,
						tenant: tn,
						cost:   cost,
						keys:   keyOf(fmt.Sprintf("%s-a%d", tn, nextName)),
					}
					nextName++
					if !sc.admit(op) {
						t.Fatal("admission refused with a huge queue bound")
					}
				}
			}
		}
		dispatched := make(map[string]int64)
		var inflight []*schedOp
		warmup := 300
		total := 0
		for total < 2500 {
			refill()
			for len(inflight) < cfg.MaxInflight {
				op := sc.next()
				if op == nil {
					break
				}
				total++
				if total > warmup {
					dispatched[op.tenant] += op.cost
				}
				inflight = append(inflight, op)
			}
			if len(inflight) == 0 {
				t.Fatal("scheduler stalled with backlogged queues")
			}
			// Complete a random in-flight op.
			i := rng.Intn(len(inflight))
			sc.complete(inflight[i])
			inflight[i] = inflight[len(inflight)-1]
			inflight = inflight[:len(inflight)-1]
		}
		var sumW, sumB int64
		for _, tn := range tenants {
			sumW += int64(weights[tn])
			sumB += dispatched[tn]
		}
		for _, tn := range tenants {
			wantShare := float64(weights[tn]) / float64(sumW)
			gotShare := float64(dispatched[tn]) / float64(sumB)
			if diff := gotShare - wantShare; diff > 0.08 || diff < -0.08 {
				t.Errorf("trial %d (weights %v, inflight %d): tenant %s share %.3f, want %.3f",
					trial, weights, cfg.MaxInflight, tn, gotShare, wantShare)
			}
		}
	}
}

// TestSchedStatsPerOpSumToGlobal runs two concurrent ops on real
// goroutines (meaningful under -race) and checks each server's per-op
// Stats blocks sum exactly to its global counters: attribution loses
// nothing and double-counts nothing — the storage stage's stall and
// overlap accounts included, which every executor's summary carries.
func TestSchedStatsPerOpSumToGlobal(t *testing.T) {
	cfg := schedCfg(4, 2, 4)
	var mu sync.Mutex
	var sums []OpSummary
	cfg.OpLog = func(s OpSummary) {
		mu.Lock()
		sums = append(sums, s)
		mu.Unlock()
	}
	specA := []ArraySpec{schedSpec("sa", 4)}
	specB := []ArraySpec{schedSpec("sb", 4)}

	world := mpi.NewWorld(cfg.WorldSize())
	clk := clock.NewReal()
	servers := make([]*Server, cfg.NumServers)
	var wg sync.WaitGroup
	errs := make([]error, cfg.WorldSize())
	for i := range servers {
		servers[i] = NewServer(cfg, world.Comm(cfg.ServerRank(i)), storage.NewMemDisk(), clk)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[cfg.ServerRank(i)] = servers[i].Serve()
		}(i)
	}
	for r := 0; r < cfg.NumClients; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = clientMain(cfg, world.Comm(r), clk, func(cl *Client) error {
				ha, err := cl.SubmitWrite("a", "", specA, makeBufs(cl, specA, true))
				if err != nil {
					return err
				}
				hb, err := cl.SubmitWrite("b", "", specB, makeBufs(cl, specB, true))
				if err != nil {
					return err
				}
				if err := ha.Await(); err != nil {
					return err
				}
				return hb.Await()
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for i, srv := range servers {
		global := srv.Stats()
		var per Stats
		n := 0
		for _, s := range sums {
			if s.Server != i {
				continue
			}
			n++
			per.MsgsSent += s.Stats.MsgsSent
			per.BytesSent += s.Stats.BytesSent
			per.MsgsRecv += s.Stats.MsgsRecv
			per.BytesRecv += s.Stats.BytesRecv
			per.Retries += s.Stats.Retries
			per.Timeouts += s.Stats.Timeouts
			per.StallNanos += s.Stats.StallNanos
			per.OverlapNanos += s.Stats.OverlapNanos
			if s.Stats.StallNanos <= 0 {
				t.Errorf("server %d op %d: summary carries StallNanos = %d; an executor waits on the storage stage at least to create and sync its file",
					i, s.Seq, s.Stats.StallNanos)
			}
		}
		if n != 2 {
			t.Fatalf("server %d logged %d op summaries, want 2", i, n)
		}
		if per.MsgsSent != global.MsgsSent || per.BytesSent != global.BytesSent ||
			per.MsgsRecv != global.MsgsRecv || per.BytesRecv != global.BytesRecv ||
			per.Retries != global.Retries || per.Timeouts != global.Timeouts ||
			per.StallNanos != global.StallNanos || per.OverlapNanos != global.OverlapNanos {
			t.Errorf("server %d: per-op sum %+v != global %+v", i, per, global)
		}
	}
}

// TestSchedBusyBackpressure floods a single-slot scheduler with a
// one-deep queue: later submissions must be refused with ErrBusy, the
// refusal must reach every rank identically, and accepted operations
// must still complete.
func TestSchedBusyBackpressure(t *testing.T) {
	const ops = 6
	cfg := schedCfg(2, 1, 1)
	cfg.Sched.QueueDepth = 1
	specs := make([][]ArraySpec, ops)
	for i := range specs {
		specs[i] = []ArraySpec{schedSpec(fmt.Sprintf("bp%d", i), 2)}
	}
	results := make([][]error, cfg.NumClients)
	_, err := RunSim(cfg, mpi.SP2Link(), func(i int, clk clock.Clock) storage.Disk {
		return storage.NewSimDisk(storage.NewMemDisk(), storage.SP2AIX(), clk)
	}, func(cl *Client) error {
		hs := make([]*OpHandle, ops)
		for i := range specs {
			h, serr := cl.SubmitWrite("", "", specs[i], makeBufs(cl, specs[i], true))
			if serr != nil {
				return serr
			}
			hs[i] = h
		}
		res := make([]error, ops)
		for i, h := range hs {
			res[i] = h.Await()
		}
		results[cl.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	busy, okCount := 0, 0
	for i := 0; i < ops; i++ {
		for r := 1; r < cfg.NumClients; r++ {
			if (results[r][i] == nil) != (results[0][i] == nil) {
				t.Fatalf("op %d: rank %d outcome %v disagrees with rank 0's %v", i, r, results[r][i], results[0][i])
			}
		}
		switch e := results[0][i]; {
		case e == nil:
			okCount++
		case errors.Is(e, ErrBusy):
			busy++
		default:
			t.Fatalf("op %d failed with non-busy error: %v", i, e)
		}
	}
	if busy == 0 {
		t.Fatalf("%d rapid submissions through a 1-deep queue produced no ErrBusy", ops)
	}
	if okCount == 0 {
		t.Fatal("every operation was refused")
	}
	t.Logf("%d accepted, %d refused busy", okCount, busy)
}

// TestSchedConflictSerialization submits two writes to the same array
// concurrently: the scheduler must serialize them (same conflict key),
// both must succeed, and the surviving contents must be the
// second-submitted operation's data.
func TestSchedConflictSerialization(t *testing.T) {
	cfg := schedCfg(2, 1, 4)
	specs := []ArraySpec{schedSpec("cs", 2)}
	_, err := RunSim(cfg, mpi.SP2Link(), func(i int, clk clock.Clock) storage.Disk {
		return storage.NewSimDisk(storage.NewMemDisk(), storage.SP2AIX(), clk)
	}, func(cl *Client) error {
		h0, err := cl.SubmitWrite("", "", specs, xorFill(cl, specs, 0x00))
		if err != nil {
			return err
		}
		h1, err := cl.SubmitWrite("", "", specs, xorFill(cl, specs, 0xFF))
		if err != nil {
			return err
		}
		if err := h0.Await(); err != nil {
			return fmt.Errorf("first write: %w", err)
		}
		if err := h1.Await(); err != nil {
			return fmt.Errorf("second write: %w", err)
		}
		got := makeBufs(cl, specs, false)
		h2, err := cl.SubmitRead("", "", specs, got)
		if err != nil {
			return err
		}
		if err := h2.Await(); err != nil {
			return fmt.Errorf("read back: %w", err)
		}
		if e := matchEpoch(cl, specs, got, []byte{0xFF}); e != 0 {
			return fmt.Errorf("rank %d read data from the wrong write", cl.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSchedCrashPointSweepTwoOps is the chaos sweep: with two
// concurrent operations, the victim op is killed (per-op crash, server
// survives) at every staged point of its write path. The survivor must
// commit bit-exact; the victim must roll back cleanly — except past the
// decision point, where roll-forward must finish its commit.
func TestSchedCrashPointSweepTwoOps(t *testing.T) {
	points := []struct {
		name           string
		victimReadable bool
	}{
		{"plan", false},
		{"pull", false},
		{"sync", false},
		{"prepare", false},
		{"decide", false},
		{"commit", true}, // decision durable before the crash: roll-forward completes it
	}
	for _, pt := range points {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			t.Parallel()
			cfg := schedCfg(4, 2, 4)
			cfg.OpTimeout = 2 * time.Second
			survivor := []ArraySpec{schedSpec("live", 4)}
			victim := []ArraySpec{schedSpec("dead", 4)}
			var fired atomic.Bool
			cfg.crashHookOp = func(server, seq int, point string) error {
				// seq 1 is the victim: the second submission on every rank.
				if server == 0 && seq == 1 && point == pt.name && fired.CompareAndSwap(false, true) {
					return errors.New("injected op crash")
				}
				return nil
			}
			disks := memDisks(cfg.NumServers)
			victimErrs := make([]error, cfg.NumClients)
			if err := RunReal(cfg, disks, func(cl *Client) error {
				hs, err := cl.SubmitWrite("s", "", survivor, xorFill(cl, survivor, 0x5A))
				if err != nil {
					return err
				}
				hv, err := cl.SubmitWrite("v", "", victim, xorFill(cl, victim, 0xA5))
				if err != nil {
					return err
				}
				if serr := hs.Await(); serr != nil {
					return fmt.Errorf("survivor: %w", serr)
				}
				victimErrs[cl.Rank()] = hv.Await()
				return nil
			}); err != nil {
				t.Fatalf("deployment failed: %v", err)
			}
			if !fired.Load() {
				t.Fatalf("crash point %q never fired", pt.name)
			}
			for r, verr := range victimErrs {
				if verr == nil {
					t.Fatalf("rank %d: victim op succeeded past an injected crash at %q", r, pt.name)
				}
			}
			// The same deployment (fresh run, same disks) must read the
			// survivor bit-exact, and see exactly the expected fate of
			// the victim.
			if err := RunReal(cfg, disks, func(cl *Client) error {
				got := xorFill(cl, survivor, 0x00)
				for i := range got {
					for j := range got[i] {
						got[i][j] = 0
					}
				}
				h, err := cl.SubmitRead("s", "", survivor, got)
				if err != nil {
					return err
				}
				if rerr := h.Await(); rerr != nil {
					return fmt.Errorf("survivor read: %w", rerr)
				}
				want := xorFill(cl, survivor, 0x5A)
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						return fmt.Errorf("rank %d: survivor data corrupted", cl.Rank())
					}
				}
				vbufs := makeBufs(cl, victim, false)
				hv, err := cl.SubmitRead("v", "", victim, vbufs)
				if err != nil {
					return err
				}
				rerr := hv.Await()
				if pt.victimReadable {
					if rerr != nil {
						return fmt.Errorf("victim not rolled forward after %q: %w", pt.name, rerr)
					}
					if e := matchEpoch(cl, victim, vbufs, []byte{0xA5}); e != 0 {
						return fmt.Errorf("rolled-forward victim data wrong")
					}
				} else if rerr == nil {
					return fmt.Errorf("victim readable after rollback at %q", pt.name)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSchedServerCrashNoDeadlock kills a whole server (fatal crash)
// mid-schedule with several ops in flight: the run must terminate —
// clients time out rather than deadlock — and the deployment must
// report the crash.
func TestSchedServerCrashNoDeadlock(t *testing.T) {
	cfg := schedCfg(2, 2, 4)
	cfg.OpTimeout = 500 * time.Millisecond
	var fired atomic.Bool
	cfg.crashHook = func(server int, point string) error {
		if server == 0 && point == "prepare" && fired.CompareAndSwap(false, true) {
			return errors.New("injected server death")
		}
		return nil
	}
	specs := make([][]ArraySpec, 3)
	for i := range specs {
		specs[i] = []ArraySpec{schedSpec(fmt.Sprintf("cr%d", i), 2)}
	}
	done := make(chan error, 1)
	go func() {
		done <- RunReal(cfg, memDisks(cfg.NumServers), func(cl *Client) error {
			hs := make([]*OpHandle, len(specs))
			for i := range specs {
				h, err := cl.SubmitWrite("", "", specs[i], makeBufs(cl, specs[i], true))
				if err != nil {
					return err
				}
				hs[i] = h
			}
			for i, h := range hs {
				if err := h.Await(); err != nil {
					typedOrNil(t, cl.Rank(), fmt.Sprintf("op %d", i), err)
				}
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("deployment reported success through a server death")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deployment deadlocked after server death")
	}
	if !fired.Load() {
		t.Fatal("server crash never fired")
	}
}

// TestSchedFrameRoutingIsolation drives the server router's frame
// classifier directly: frames for finished, unknown, or malformed
// operations must be rejected — counted, never delivered.
func TestSchedFrameRoutingIsolation(t *testing.T) {
	cfg := schedCfg(1, 1, 2)
	s := bareServer(cfg)
	r := &schedRouter{
		s:      s,
		ops:    make(map[int]*schedOp),
		frames: newOpFrames(),
		core:   newSchedCore(&cfg.Sched, 0),
	}
	r.frames.retire(3, 0)
	rejected := func() int64 { return s.Stats().FramesRejected }

	// A data frame for a finished op.
	r.route(mpi.Message{Tag: tagToServer(3), Data: []byte{msgSubData}})
	if rejected() != 1 {
		t.Fatalf("finished-op frame not rejected (count %d)", rejected())
	}
	// A data frame for an op this server has never heard of.
	r.route(mpi.Message{Tag: tagToServer(9), Data: []byte{msgSubData}})
	if rejected() != 2 {
		t.Fatal("unknown-op frame not rejected")
	}
	// A frame on a non-protocol tag.
	r.route(mpi.Message{Tag: 7, Data: []byte{msgSubData}})
	if rejected() != 3 {
		t.Fatal("bogus-tag frame not rejected")
	}
	// A malformed op request.
	r.route(mpi.Message{Tag: tagControl, Data: []byte{msgOpRequest, 0xFF}})
	if rejected() != 4 {
		t.Fatal("malformed request not rejected")
	}
	// A duplicate request for a finished op.
	sch := array.MustSchema([]int{4}, []array.Dist{array.Block}, []int{1})
	raw := encodeOpRequest(opRequest{Op: opWrite, Seq: 3, Specs: []ArraySpec{
		{Name: "x", ElemSize: 4, Mem: sch, Disk: sch},
	}})
	r.route(mpi.Message{Tag: tagControl, Data: raw})
	if rejected() != 5 {
		t.Fatal("duplicate request not rejected")
	}
	// A frame for an admitted-but-undispatched op must be stashed, not
	// rejected or delivered.
	r.ops[5] = &schedOp{seq: 5}
	r.route(mpi.Message{Tag: tagToServer(5), Data: []byte{msgSubData, 1}})
	if len(r.frames.stash[5]) != 1 {
		t.Fatal("frame for queued op not stashed")
	}
	if rejected() != 5 {
		t.Fatal("stashable frame was rejected")
	}
}

// TestSchedDiskMergeCounted checks the cross-op disk batcher actually
// merges adjacent requests: a scheduler run with small sub-chunks must
// record DiskMerges.
func TestSchedDiskMergeCounted(t *testing.T) {
	cfg := schedCfg(4, 1, 2)
	cfg.SubchunkBytes = 256
	specs := [][]ArraySpec{
		{schedSpec("dm0", 4)},
		{schedSpec("dm1", 4)},
	}
	res, err := RunSim(cfg, mpi.SP2Link(), func(i int, clk clock.Clock) storage.Disk {
		return storage.NewSimDisk(storage.NewMemDisk(), storage.SP2AIX(), clk)
	}, func(cl *Client) error {
		hs := make([]*OpHandle, len(specs))
		for i := range specs {
			h, err := cl.SubmitWrite("", "", specs[i], makeBufs(cl, specs[i], true))
			if err != nil {
				return err
			}
			hs[i] = h
		}
		for _, h := range hs {
			if err := h.Await(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var merges int64
	for _, st := range res.ServerStats {
		merges += st.DiskMerges
	}
	if merges == 0 {
		t.Fatal("no disk merges recorded for adjacent small writes")
	}
	t.Logf("disk merges: %d", merges)
}

// TestSingleFileBatchNotMerged is the other half of the merge rule: one
// operation alone on the node, a window of 4 and a disk slow enough that
// every batch holds several adjacent writes — to one file. That run is
// already sequential, so each sub-chunk must reach the disk as its own
// WriteAt and DiskMerges must stay zero.
func TestSingleFileBatchNotMerged(t *testing.T) {
	cfg := schedCfg(4, 1, 2)
	cfg.SubchunkBytes = 256
	cfg.Pipeline = 4
	specs := []ArraySpec{schedSpec("solo", 4)}
	trace := &diskTrace{}
	res, err := RunSim(cfg, mpi.SP2Link(), func(i int, clk clock.Clock) storage.Disk {
		return &traceDisk{inner: storage.NewSimDisk(storage.NewMemDisk(), storage.AIXModel{MediaRate: 1e4}, clk), trace: trace}
	}, func(cl *Client) error {
		return cl.WriteArrays("", specs, makeBufs(cl, specs, true))
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.ServerStats[0].DiskMerges; n != 0 {
		t.Errorf("DiskMerges = %d for a lone op writing one file, want 0", n)
	}
	writes := 0
	for _, e := range trace.events {
		if e.op != 'w' || e.name != storage.EpochName(specs[0].FileName("", 0), 1) {
			continue
		}
		writes++
		if e.n != int(cfg.SubchunkBytes) {
			t.Errorf("WriteAt of %d bytes at offset %d, want one %d-byte sub-chunk per call", e.n, e.off, cfg.SubchunkBytes)
		}
	}
	if want := int(specs[0].TotalBytes() / cfg.SubchunkBytes); writes != want {
		t.Errorf("%d data writes, want %d (one per sub-chunk)", writes, want)
	}
	trace.assertSequential(t, 0)
}

// TestSchedCoreConflictBlocksOnlyThatTenant: a conflict at one tenant's
// head must not starve other tenants.
func TestSchedCoreConflictBlocksOnlyThatTenant(t *testing.T) {
	sc := newSchedCore(&SchedConfig{MaxInflight: 4, QueueDepth: 16}, 0)
	mk := func(seq int, tenant, key string) *schedOp {
		return &schedOp{seq: seq, tenant: tenant, cost: 100, keys: keyOf(key)}
	}
	if !sc.admit(mk(0, "a", "shared")) || !sc.admit(mk(1, "a", "shared")) || !sc.admit(mk(2, "b", "other")) {
		t.Fatal("admission refused")
	}
	first := sc.next()
	if first == nil || first.seq != 0 {
		t.Fatalf("first dispatch = %+v, want seq 0", first)
	}
	second := sc.next()
	if second == nil || second.seq != 2 {
		t.Fatalf("conflict did not yield to tenant b: got %+v", second)
	}
	if op := sc.next(); op != nil {
		t.Fatalf("dispatched conflicting op %d while key held", op.seq)
	}
	sc.complete(first)
	third := sc.next()
	if third == nil || third.seq != 1 {
		t.Fatalf("after release, got %+v, want seq 1", third)
	}
}

// TestSchedCoreDispatchCostIndependentOfCreditRounds: an op sixteen
// quanta large takes seventeen scans of the ring to afford, and a scan
// must not copy the ring.
func TestSchedCoreDispatchCostIndependentOfCreditRounds(t *testing.T) {
	sc := newSchedCore(&SchedConfig{MaxInflight: 1, Quantum: 1 << 20}, 0)
	op := &schedOp{tenant: "a", cost: 16 << 20, keys: keyOf("k")}
	allocs := testing.AllocsPerRun(100, func() {
		if !sc.admit(op) || sc.next() != op {
			t.Fatal("lone op not dispatched")
		}
		sc.complete(op)
	})
	if allocs > 2 { // the tenant queue's append; was one more per credited round
		t.Fatalf("admit+next+complete = %v allocs", allocs)
	}
}

// TestOpFramedProtocolRoundTrip pins what the scheduler adds to the
// wire: the tenant tail on the request frame. (Pull and data frames
// carry nothing of their own — the tag names the
// operation, TestTagSpace.)
func TestOpFramedProtocolRoundTrip(t *testing.T) {
	sch := array.MustSchema([]int{8}, []array.Dist{array.Block}, []int{2})
	req := opRequest{Op: opWrite, Seq: 4, Tenant: "acme", Specs: []ArraySpec{
		{Name: "t", ElemSize: 4, Mem: sch, Disk: sch},
	}}
	back, err := decodeOpRequest(encodeOpRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if back.Tenant != "acme" {
		t.Fatalf("tenant lost on the wire: %q", back.Tenant)
	}
}
