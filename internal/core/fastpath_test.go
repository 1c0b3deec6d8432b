package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"panda/internal/array"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/obs"
	"panda/internal/storage"
)

// fastpathServer builds a bare server for white-box plan-cache tests:
// no Serve loop, just the planning state machine.
func fastpathServer(cfg Config) *Server {
	world := mpi.NewWorld(cfg.WorldSize())
	return NewServer(cfg, world.Comm(cfg.ServerRank(0)), storage.NewNullDisk(), clock.NewReal())
}

func fastpathSpec(name string, mesh []int) ArraySpec {
	shape := []int{32, 32}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, mesh)
	disk := array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{2})
	return ArraySpec{Name: name, ElemSize: 4, Mem: mem, Disk: disk}
}

// TestPlanCacheHitsAndKeys drives planFor directly: a repeat plan must
// hit, and every ingredient of the key — dead set, memory schema — must
// produce a distinct entry. Clearing the map (what replan adoption does)
// must force a recomputation.
func TestPlanCacheHitsAndKeys(t *testing.T) {
	cfg := Config{NumClients: 2, NumServers: 2, SubchunkBytes: 1 << 10}
	s := fastpathServer(cfg)
	spec := fastpathSpec("pc", []int{2, 1})

	jobs1, subs1, _ := s.planFor(0, spec, nil)
	if got := s.Stats(); got.PlanMisses != 1 || got.PlanHits != 0 {
		t.Fatalf("first plan: hits=%d misses=%d, want 0/1", got.PlanHits, got.PlanMisses)
	}
	jobs2, subs2, _ := s.planFor(0, spec, nil)
	if got := s.Stats(); got.PlanHits != 1 {
		t.Fatalf("repeat plan did not hit: hits=%d misses=%d", got.PlanHits, got.PlanMisses)
	}
	if len(jobs1) > 0 && &jobs1[0] != &jobs2[0] {
		t.Error("hit did not reuse the cached chunk jobs")
	}
	if len(subs1) > 0 && &subs1[0] != &subs2[0] {
		t.Error("hit did not reuse the cached sub-chunk plan")
	}

	// A degraded plan keys separately from the full-house plan...
	_, subsDead, _ := s.planFor(0, spec, map[int]bool{1: true})
	if got := s.Stats(); got.PlanMisses != 2 {
		t.Fatalf("degraded plan shared the full-house entry: misses=%d", got.PlanMisses)
	}
	if len(subsDead) == len(subs1) && len(subs1) > 0 && &subsDead[0] == &subs1[0] {
		t.Error("degraded plan aliases the full-house plan")
	}
	// ...and both coexist: replanning does not evict the healthy entry.
	s.planFor(0, spec, nil)
	s.planFor(0, spec, map[int]bool{1: true})
	if got := s.Stats(); got.PlanHits != 3 {
		t.Fatalf("coexisting entries did not both hit: hits=%d", got.PlanHits)
	}

	// A different memory schema changes where the pieces live, so it
	// must miss even though the disk layout is identical.
	other := fastpathSpec("pc", []int{1, 2})
	s.planFor(0, other, nil)
	if got := s.Stats(); got.PlanMisses != 3 {
		t.Fatalf("memory-schema change hit a stale plan: misses=%d", got.PlanMisses)
	}

	// Replan adoption clears the map; the next plan recomputes.
	s.plans.reset()
	s.planFor(0, spec, nil)
	if got := s.Stats(); got.PlanMisses != 4 {
		t.Fatalf("cleared cache still hit: misses=%d", got.PlanMisses)
	}
}

// TestPlanCacheBounded fills the cache past its size bound and checks
// it restarts instead of growing without limit.
func TestPlanCacheBounded(t *testing.T) {
	cfg := Config{NumClients: 2, NumServers: 2, SubchunkBytes: 1 << 10}
	s := fastpathServer(cfg)
	for i := 0; i < 3*planCacheSize; i++ {
		s.planFor(0, fastpathSpec(fmt.Sprintf("a%d", i), []int{2, 1}), nil)
		if n := len(s.plans.entries); n > planCacheSize {
			t.Fatalf("cache grew to %d entries past its bound of %d", n, planCacheSize)
		}
	}
	if n := len(s.plans.entries); n != planCacheSize {
		t.Fatalf("cache holds %d entries after %d distinct plans, want %d (restart, then refill)", n, 3*planCacheSize, planCacheSize)
	}
}

// TestPlanCacheTimestepHits runs the paper's Timestep pattern — the
// same arrays written repeatedly under step suffixes — through a full
// simulated deployment and checks the plan cache is demonstrably hit:
// one miss per (server, array) on the first step, pure hits afterwards,
// visible both in ServerStats and in the metrics registry.
func TestPlanCacheTimestepHits(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{
		NumClients: 4, NumServers: 2, SubchunkBytes: 2 << 10,
		PlainWrites: true, Metrics: reg,
	}
	shape := []int{64, 64}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{2})
	specs := []ArraySpec{{Name: "ts", ElemSize: 4, Mem: mem, Disk: disk}}

	const steps = 4
	res, err := RunSim(cfg, mpi.SP2Link(), simDiskFactory(storage.SP2AIX()), func(cl *Client) error {
		bufs := makeBufs(cl, specs, true)
		for step := 0; step < steps; step++ {
			if werr := cl.WriteArrays(fmt.Sprintf(".t%d", step), specs, bufs); werr != nil {
				return werr
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var hits, misses int64
	for _, st := range res.ServerStats {
		hits += st.PlanHits
		misses += st.PlanMisses
	}
	wantMisses := int64(cfg.NumServers)
	wantHits := int64(cfg.NumServers * (steps - 1))
	if misses != wantMisses || hits != wantHits {
		t.Errorf("timestep plan cache: hits=%d misses=%d, want %d/%d",
			hits, misses, wantHits, wantMisses)
	}
	if v := reg.Counter("plan_cache_hits").Value(); v != wantHits {
		t.Errorf("plan_cache_hits metric = %d, want %d", v, wantHits)
	}
	if v := reg.Counter("plan_cache_misses").Value(); v != wantMisses {
		t.Errorf("plan_cache_misses metric = %d, want %d", v, wantMisses)
	}
}

// TestPlanCacheInvalidatedOnFailover writes once with a full house,
// crashes a server, then writes again: the degraded write must replan
// (a fresh miss keyed by the new alive set) rather than reuse the
// full-house plan, and the surviving data must still verify.
func TestPlanCacheInvalidatedOnFailover(t *testing.T) {
	cfg, specs := recoverySpecs(3, 2)
	cfg.Retry = RetryPolicy{Max: 3, Backoff: 20 * time.Millisecond, Jitter: 0.2}
	plan := mpi.NewFaultPlan(7)
	comms := wrapWorld(cfg, plan)
	disks := memDisks(cfg.NumServers)
	victim := cfg.ServerRank(1)

	barrier := newBarrier(cfg.NumClients)
	var mu sync.Mutex
	var servers []*Server
	clk := clock.NewReal()
	var wg sync.WaitGroup
	errs := make([]error, cfg.WorldSize())
	for r := 0; r < cfg.NumClients; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = runClientNode(cfg, comms[r], func(cl *Client) error {
				bufs := makeBufs(cl, specs, true)
				if werr := cl.WriteArrays(".full", specs, bufs); werr != nil {
					return fmt.Errorf("full-house write: %w", werr)
				}
				barrier()
				if cl.Rank() == 0 {
					plan.CrashRank(victim)
				}
				barrier()
				if werr := cl.WriteArrays(".degraded", specs, bufs); werr != nil {
					return fmt.Errorf("degraded write: %w", werr)
				}
				got := makeBufs(cl, specs, false)
				if rerr := cl.ReadArrays(".degraded", specs, got); rerr != nil {
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
			continue
		}
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	var survivorMisses int64
	for _, srv := range servers {
		if srv.comm.Rank() == victim {
			continue
		}
		survivorMisses += srv.Stats().PlanMisses
	}
	// The survivor planned the full-house write and then replanned the
	// degraded one under a different alive set: at least two misses.
	if survivorMisses < 2 {
		t.Errorf("survivor recorded %d plan misses; the failover replan reused a stale plan", survivorMisses)
	}
}

// TestPieceKeyNoAllocs pins the satellite that motivated pieceID: the
// per-piece duplicate check in the pull loop must not allocate for the
// ranks that occur in practice (≤ 4).
func TestPieceKeyNoAllocs(t *testing.T) {
	reg := array.Region{Lo: []int{1, 2, 3}, Hi: []int{4, 5, 6}}
	seen := map[pieceID]bool{}
	allocs := testing.AllocsPerRun(100, func() {
		k := pieceKey(2, reg)
		if seen[k] {
			t.Fatal("unexpected duplicate")
		}
	})
	if allocs != 0 {
		t.Errorf("pieceKey+lookup allocates %.1f per run, want 0", allocs)
	}
}

// TestDepositPieceSteadyStateAllocs checks the steady-state deposit —
// sub-chunk buffer already allocated, metrics off, contiguous piece —
// is allocation-free: the pull loop's per-piece cost is pure copying.
func TestDepositPieceSteadyStateAllocs(t *testing.T) {
	cfg := Config{NumClients: 2, NumServers: 2, SubchunkBytes: 1 << 20}
	s := fastpathServer(cfg) // CopyRate 0: no simulated copy charge
	spec := fastpathSpec("al", []int{2, 1})

	sub := array.Region{Lo: []int{0, 0}, Hi: []int{16, 32}}
	pend := &pending{
		job: subchunkJob{Region: sub, Bytes: sub.NumElems() * 4},
		buf: make([]byte, sub.NumElems()*4),
	}
	reg, payload := array.Region{Lo: []int{0, 0}, Hi: []int{8, 32}}, make([]byte, 8*32*4)
	allocs := testing.AllocsPerRun(100, func() {
		s.depositPiece(spec, pend, reg, payload)
	})
	if allocs != 0 {
		t.Errorf("steady-state depositPiece allocates %.1f per run, want 0", allocs)
	}
}
