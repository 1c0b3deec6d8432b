package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// The plan cache under the scheduler: executors are built per operation,
// so the cache only works if they share their node's. These tests read
// every server's per-operation counters off OpLog after the deployment
// has shut down (a non-master logs after its Done has left, so only then
// is every summary in).

type opLog struct {
	mu  sync.Mutex
	ops []OpSummary
}

func (l *opLog) add(s OpSummary) {
	l.mu.Lock()
	l.ops = append(l.ops, s)
	l.mu.Unlock()
}

// wantPlans asserts that operation seq succeeded on all servers and that
// each of them counted exactly hits and misses plan-cache lookups in it.
func (l *opLog) wantPlans(t *testing.T, what string, seq, servers int, hits, misses int64) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := 0
	for _, s := range l.ops {
		if s.Seq != seq {
			continue
		}
		seen++
		if s.Err != nil {
			t.Errorf("%s (op %d) failed on server %d: %v", what, seq, s.Server, s.Err)
		}
		if s.Stats.PlanHits != hits || s.Stats.PlanMisses != misses {
			t.Errorf("%s (op %d), server %d: %d hits %d misses, want %d and %d",
				what, seq, s.Server, s.Stats.PlanHits, s.Stats.PlanMisses, hits, misses)
		}
	}
	if seen != servers {
		t.Errorf("%s (op %d): %d server summaries, want %d", what, seq, seen, servers)
	}
}

// TestPlanCacheHitsUnderScheduler: the second of two identical
// collectives through the scheduler plans nothing on any server — under the
// real clock, under virtual time, and with two executors per node
// filling and reading the cache at once (the -race case).
func TestPlanCacheHitsUnderScheduler(t *testing.T) {
	specs := []ArraySpec{schedSpec("pa", 4), schedSpec("pb", 4)}
	n := int64(len(specs))
	timesteps := func(cl *Client) error {
		bufs := makeBufs(cl, specs, true)
		for step := 0; step < 2; step++ {
			if err := cl.WriteArrays(fmt.Sprintf(".t%d", step), specs, bufs); err != nil {
				return err
			}
		}
		return nil
	}
	check := func(t *testing.T, log *opLog) {
		log.wantPlans(t, "first timestep", 0, 2, 0, n)
		log.wantPlans(t, "second timestep", 1, 2, n, 0)
	}

	t.Run("real", func(t *testing.T) {
		log := &opLog{}
		cfg := schedCfg(4, 2, 2)
		cfg.OpLog = log.add
		if err := RunReal(cfg, memDisks(2), timesteps); err != nil {
			t.Fatal(err)
		}
		check(t, log)
	})
	t.Run("vtime", func(t *testing.T) {
		log := &opLog{}
		cfg := schedCfg(4, 2, 2)
		cfg.OpLog = log.add
		if _, err := RunSim(cfg, mpi.SP2Link(), simDiskFactory(storage.SP2AIX()), timesteps); err != nil {
			t.Fatal(err)
		}
		check(t, log)
	})
	t.Run("concurrent", func(t *testing.T) {
		log := &opLog{}
		cfg := schedCfg(4, 2, 4)
		cfg.OpLog = log.add
		tenants := []string{"alice", "bob"}
		if err := RunReal(cfg, memDisks(2), func(cl *Client) error {
			for round := 0; round < 2; round++ {
				var hs []*OpHandle
				for i, tenant := range tenants {
					one := specs[i : i+1]
					h, err := cl.SubmitWrite(tenant, fmt.Sprintf(".r%d", round), one, makeBufs(cl, one, true))
					if err != nil {
						return err
					}
					hs = append(hs, h)
				}
				for _, h := range hs {
					if err := h.Await(); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for seq := 0; seq < 2; seq++ {
			log.wantPlans(t, "first round", seq, 2, 0, 1)
			log.wantPlans(t, "second round", 2+seq, 2, 1, 0)
		}
	})
}

// TestPlanCacheInvalidatedOnMembershipEpoch: the first operation
// dispatched after the membership epoch moves replans on every server,
// the next hits again. The epoch is moved by a reservation — a join
// beginning — which leaves the set of slots fenced from writes, and so
// the cache key, exactly as it was: the miss is the watermark's doing.
func TestPlanCacheInvalidatedOnMembershipEpoch(t *testing.T) {
	const clients, pool, live = 2, 3, 2
	log := &opLog{}
	members := NewMembership(pool, live, time.Hour, 10*time.Millisecond)
	cfg := Config{
		NumClients: clients, NumServers: pool, SubchunkBytes: 1 << 10,
		Service: true, Sched: SchedConfig{MaxInflight: 2},
		Members: members,
		OpLog:   log.add,
	}
	world := mpi.NewWorld(cfg.WorldSize())
	comms, disks := make([]mpi.Comm, pool), make([]storage.Disk, pool)
	for i := 0; i < live; i++ { // slot 2 stays vacant: no server, no disk
		comms[i], disks[i] = world.Comm(cfg.ServerRank(i)), storage.NewMemDisk()
	}
	svc, err := NewService(cfg, disks)
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewReal()
	loopback := func(to, tag int, data []byte) { world.Comm(to).SendOwned(to, tag, data) }
	if err := svc.Start(comms, loopback, clk); err != nil {
		t.Fatal(err)
	}
	info, err := svc.Attach(clients, "t")
	if err != nil {
		t.Fatal(err)
	}

	specs := []ArraySpec{schedSpec("me", clients)}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := range info.Ranks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, cerr := NewSessionClient(cfg, world.Comm(info.Ranks[i]), clk, info.Ranks, i, info.SeqBase)
			if cerr != nil {
				errs[i] = cerr
				return
			}
			defer cl.Shutdown()
			bufs := makeBufs(cl, specs, true)
			for step := 0; step < 4; step++ {
				if step == 2 && i == 0 {
					// Only the leader's request starts an operation, and its
					// step-1 call returned once every server was done: the
					// next dispatch is the first under the new epoch.
					_, errs[i] = members.Reserve("joiner", clk.Now(), nil)
				}
				if errs[i] == nil {
					errs[i] = cl.WriteArrays(fmt.Sprintf(".t%d", step), specs, bufs)
				}
			}
		}(i)
	}
	wg.Wait()
	svc.Detach(info.ID)
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}

	for step, want := range []struct {
		what         string
		hits, misses int64
	}{
		{"first write", 0, 1},
		{"repeat", 1, 0},
		{"first write after the epoch moved", 0, 1},
		{"repeat after the epoch moved", 1, 0},
	} {
		log.wantPlans(t, want.what, info.SeqBase+step, live, want.hits, want.misses)
	}
}

// TestReadPlanIsTheWritePlan: a read of an epoch a full house wrote is
// served from the plan-cache entry its write made — no sub-chunk plan is
// derived for it — and the plan it gets is the one the manifest's list
// would have produced; a degraded epoch's read is planned from its own
// list; a moved membership epoch drops the entry for both directions.
func TestReadPlanIsTheWritePlan(t *testing.T) {
	t.Run("plan", func(t *testing.T) {
		cfg := Config{NumClients: 2, NumServers: 2, SubchunkBytes: 1 << 10}
		s := fastpathServer(cfg)
		spec := fastpathSpec("rw", []int{2, 1})
		jobs, cached, _ := s.planFor(0, spec, nil) // the write's plan: one miss
		m := buildManifest(spec, opRequest{Suffix: ".ckpt"}, s.index, 1, jobs, nil)

		subs, planned, err := s.planForManifest(0, spec, m)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Stats(); got.PlanHits != 1 || got.PlanMisses != 1 {
			t.Errorf("read after write: %d hits %d misses, want 1 and 1", got.PlanHits, got.PlanMisses)
		}
		if &subs[0] != &cached[0] || planned != m.TotalBytes {
			t.Error("the read was not handed the write's cached plan")
		}
		listed, err := chunksFromManifest(spec, m, s.index)
		if err != nil {
			t.Fatal(err)
		}
		if fresh := planSubchunks(0, spec, listed, spec.subchunkBytes(cfg)); !reflect.DeepEqual(subs, fresh) {
			t.Error("the cached plan differs from one derived from the manifest's chunk list")
		}

		// A degraded list is planned from the list, consulting nothing.
		dead := map[int]bool{1: true}
		djobs, dsubs, _ := s.planFor(0, spec, dead)
		before := s.Stats()
		dm := buildManifest(spec, opRequest{Deads: []int{1}}, s.index, 2, djobs, nil)
		got, _, err := s.planForManifest(0, spec, dm)
		if err != nil {
			t.Fatal(err)
		}
		if after := s.Stats(); after.PlanHits != before.PlanHits || after.PlanMisses != before.PlanMisses {
			t.Error("a degraded manifest consulted the plan cache")
		}
		if !reflect.DeepEqual(got, dsubs) || &got[0] == &cached[0] {
			t.Error("a degraded manifest's plan is not the plan of its own chunk list")
		}

		// The membership epoch moves: the entry is gone for reads too.
		s.plans.seeEpoch(7)
		if again, _, _ := s.planForManifest(0, spec, m); !reflect.DeepEqual(again, subs) || &again[0] == &cached[0] {
			t.Error("a read after the membership epoch moved did not replan")
		}
		if got := s.Stats(); got.PlanMisses != before.PlanMisses+1 {
			t.Errorf("a read after the membership epoch moved: %d misses, want %d", got.PlanMisses, before.PlanMisses+1)
		}
	})

	// Two servers, inline and through the scheduler: the write misses
	// once per array per server, the read hits once per array per server.
	specs := []ArraySpec{schedSpec("ra", 4), schedSpec("rb", 4)}
	n := int64(len(specs))
	for _, inflight := range []int{0, 2} {
		t.Run(fmt.Sprintf("inflight=%d", inflight), func(t *testing.T) {
			log := &opLog{}
			cfg := schedCfg(4, 2, inflight)
			cfg.OpLog = log.add
			if err := RunReal(cfg, memDisks(2), func(cl *Client) error {
				if err := cl.WriteArrays(".ckpt", specs, makeBufs(cl, specs, true)); err != nil {
					return err
				}
				got := makeBufs(cl, specs, false)
				if err := cl.ReadArrays(".ckpt", specs, got); err != nil {
					return err
				}
				return checkBufs(cl, specs, got)
			}); err != nil {
				t.Fatal(err)
			}
			log.wantPlans(t, "write", 0, 2, 0, n)
			log.wantPlans(t, "read", 1, 2, n, 0)
		})
	}

	// Two tenants restart the same array at once, each from its own
	// checkpoint: both reads share one cached plan (the suffix is not in
	// the key) and neither may write to it — the -race case.
	t.Run("concurrent", func(t *testing.T) {
		log := &opLog{}
		cfg := schedCfg(4, 2, 4)
		cfg.OpLog = log.add
		one := specs[:1]
		suffixes := []string{".alice", ".bob"}
		if err := RunReal(cfg, memDisks(2), func(cl *Client) error {
			for _, sfx := range suffixes {
				if err := cl.WriteArrays(sfx, one, makeBufs(cl, one, true)); err != nil {
					return err
				}
			}
			for round := 0; round < 3; round++ {
				hs, got := make([]*OpHandle, len(suffixes)), make([][][]byte, len(suffixes))
				for i, sfx := range suffixes {
					var err error
					got[i] = makeBufs(cl, one, false)
					if hs[i], err = cl.SubmitRead(sfx[1:], sfx, one, got[i]); err != nil {
						return err
					}
				}
				for i, h := range hs {
					if err := h.Await(); err != nil {
						return err
					}
					if err := checkBufs(cl, one, got[i]); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		log.wantPlans(t, "first write", 0, 2, 0, 1)
		for seq := 1; seq < 2+3*len(suffixes); seq++ {
			log.wantPlans(t, "repeat", seq, 2, 1, 0)
		}
	})

	// One server dies before a write: the survivor's file carries the
	// dead server's chunks, so its read plans from the manifest's list —
	// no cache lookup at all — and the data still comes back bit-exact.
	t.Run("degraded", func(t *testing.T) {
		cfg, specs := recoverySpecs(3, 2)
		cfg.Retry = RetryPolicy{Max: 3, Backoff: 20 * time.Millisecond, Jitter: 0.2}
		log := &opLog{}
		cfg.OpLog = log.add
		plan := mpi.NewFaultPlan(5)
		comms := wrapWorld(cfg, plan)
		disks := memDisks(cfg.NumServers)
		victim := cfg.ServerRank(1)
		barrier := newBarrier(cfg.NumClients)
		clk := clock.NewReal()
		var wg sync.WaitGroup
		errs := make([]error, cfg.WorldSize())
		for r := 0; r < cfg.NumClients; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				errs[r] = runClientNode(cfg, comms[r], func(cl *Client) error {
					for round := 0; round < 2; round++ { // full house, then degraded
						if werr := cl.WriteArrays(".ckpt", specs, makeBufs(cl, specs, true)); werr != nil {
							return fmt.Errorf("write %d: %w", round, werr)
						}
						got := makeBufs(cl, specs, false)
						if rerr := cl.ReadArrays(".ckpt", specs, got); rerr != nil {
							return fmt.Errorf("read %d: %w", round, rerr)
						}
						if err := checkBufs(cl, specs, got); err != nil {
							return err
						}
						barrier()
						if round == 0 && cl.Rank() == 0 {
							plan.CrashRank(victim)
						}
						barrier()
					}
					return nil
				})
			}(r)
		}
		for i := 0; i < cfg.NumServers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rank := cfg.ServerRank(i)
				errs[rank] = NewServer(cfg, comms[rank], disks[i], clk).Serve()
			}(i)
		}
		wg.Wait()
		for r, err := range errs {
			if r != victim && err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		log.wantPlans(t, "full-house read", 1, 2, 1, 0)
		log.mu.Lock()
		defer log.mu.Unlock()
		reads := 0
		for _, s := range log.ops {
			if s.Seq == 3 && s.Server == 0 {
				reads++
				if s.Err != nil || s.Stats.PlanHits != 0 || s.Stats.PlanMisses != 0 || s.Stats.Degraded == 0 {
					t.Errorf("degraded read on the survivor: err %v, %d hits %d misses, degraded %d; want a clean degraded read that consulted nothing",
						s.Err, s.Stats.PlanHits, s.Stats.PlanMisses, s.Stats.Degraded)
				}
			}
		}
		if reads != 1 {
			t.Errorf("%d summaries of the degraded read on the survivor, want 1", reads)
		}
	})
}
