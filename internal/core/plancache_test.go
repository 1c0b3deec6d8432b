package core

import (
	"fmt"
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
// collectives through serveSched plans nothing on any server — under the
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
		if _, err := RunSim(cfg, mpi.SP2Link(), SimDiskFactory(storage.SP2AIX()), timesteps); err != nil {
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
	members := NewMembership(pool, live, time.Hour)
	cfg := Config{
		NumClients: clients, NumServers: pool, SubchunkBytes: 1 << 10,
		Service: true, Sched: SchedConfig{MaxInflight: 2},
		Members: members, LeaseTTL: time.Hour, HeartbeatEvery: 10 * time.Millisecond,
		OpLog: log.add,
	}
	world := mpi.NewWorld(cfg.WorldSize())
	comms, disks := make([]mpi.Comm, pool), make([]storage.Disk, pool)
	for i := 0; i < live; i++ { // slot 2 stays vacant: no server, no disk
		comms[i], disks[i] = world.Comm(cfg.ServerRank(i)), storage.NewMemDisk()
	}
	svc, err := NewService(cfg, disks, nil)
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
					_, errs[i] = members.Reserve("joiner", clk.Now())
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
