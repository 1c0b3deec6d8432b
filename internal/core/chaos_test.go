package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"panda/internal/array"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// chaos_test.go drives the collective protocol through randomized
// transport-fault schedules — drops, duplicates, delays, reorders and
// rank crashes — and asserts the robustness contract: every collective
// either succeeds or returns a typed error (ErrTimeout/ErrPeerLost)
// within the operation budget, the deployment never deadlocks, and
// once the network heals a fresh collective on the same deployment
// works.

// chaosSpecs builds a deployment whose mem and disk schemas differ, so
// every operation also exercises the reorganization paths.
func chaosSpecs(clients, servers int) (Config, []ArraySpec) {
	cfg := Config{
		NumClients:    clients,
		NumServers:    servers,
		SubchunkBytes: 256,
		OpTimeout:     1500 * time.Millisecond,
		PullRetries:   2,
	}
	shape := []int{16, 16}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{clients, 1})
	disk := array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{servers})
	return cfg, []ArraySpec{{Name: "chaos", ElemSize: 4, Mem: mem, Disk: disk}}
}

// newBarrier returns a reusable rendezvous for n goroutines.
func newBarrier(n int) func() {
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	waiting, gen := 0, 0
	return func() {
		mu.Lock()
		defer mu.Unlock()
		g := gen
		waiting++
		if waiting == n {
			waiting, gen = 0, gen+1
			cond.Broadcast()
			return
		}
		for g == gen {
			cond.Wait()
		}
	}
}

// wrapWorld builds one inproc world with every endpoint behind the
// same fault plan.
func wrapWorld(cfg Config, plan *mpi.FaultPlan) []mpi.Comm {
	world := mpi.NewWorld(cfg.WorldSize())
	comms := make([]mpi.Comm, cfg.WorldSize())
	for r := range comms {
		comms[r] = mpi.WrapFault(world.Comm(r), plan, clock.NewReal())
	}
	return comms
}

// typedOrNil fails the test unless err is nil or one of the typed
// sentinels a caller is promised (IsTyped) — e.g. ErrTimeout or
// ErrPeerLost from a lossy round, ErrNoCommittedEpoch from reading back
// a write the faults aborted.
func typedOrNil(t *testing.T, rank int, what string, err error) {
	t.Helper()
	if err == nil || IsTyped(err) {
		return
	}
	t.Errorf("rank %d, %s: untyped error %v", rank, what, err)
}

func TestChaosLossySchedules(t *testing.T) {
	scenarios := []struct {
		name string
		seed int64
		set  func(p *mpi.FaultPlan)
	}{
		{"light-mix", 11, func(p *mpi.FaultPlan) {
			p.DropProb, p.DupProb, p.ReorderProb = 0.05, 0.10, 0.10
			p.DelayProb, p.Delay = 0.10, 2*time.Millisecond
		}},
		{"heavy-loss", 23, func(p *mpi.FaultPlan) {
			p.DropProb, p.DupProb = 0.30, 0.05
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			cfg, specs := chaosSpecs(3, 2)
			plan := mpi.NewFaultPlan(sc.seed)
			sc.set(plan)
			comms := wrapWorld(cfg, plan)
			barrier := newBarrier(cfg.NumClients)

			const rounds = 2
			writeErrs := make([][]error, cfg.NumClients)
			readErrs := make([][]error, cfg.NumClients)
			attempt := make([]error, cfg.NumClients)
			_, err := RunWith(cfg, comms, memDisks(cfg.NumServers), func(cl *Client) error {
				bufs := makeBufs(cl, specs, true)
				for round := 0; round < rounds; round++ {
					suffix := fmt.Sprintf(".r%d", round)
					werr := cl.WriteArrays(suffix, specs, bufs)
					writeErrs[cl.Rank()] = append(writeErrs[cl.Rank()], werr)
					got := makeBufs(cl, specs, false)
					rerr := cl.ReadArrays(suffix, specs, got)
					readErrs[cl.Rank()] = append(readErrs[cl.Rank()], rerr)
					if rerr == nil {
						// Any read that succeeds — even of a round whose
						// write failed somewhere — must serve a committed
						// epoch, which always holds the full pattern.
						if cerr := checkBufs(cl, specs, got); cerr != nil {
							return cerr
						}
					}
				}
				// Heal, then prove the deployment survived the storm. The
				// servers may still be burning their deadlines on queued
				// doomed operations, so the post-heal write retries (in
				// lockstep across ranks — SPMD) until the deployment has
				// drained; each individual attempt stays bounded.
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
						return fmt.Errorf("deployment still failing %d operations after heal: %v", try+1, attempt[cl.Rank()])
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			// Writes must succeed or fail typed. Reads of a cleanly
			// written round too. A round whose write failed somewhere is
			// still bound by the commit protocol: the read serves a
			// committed epoch (succeeding bit-exact — checked in the app),
			// fails typed, or reports that no epoch ever committed. A torn
			// or short file is never acceptable.
			for rank := range writeErrs {
				for round, werr := range writeErrs[rank] {
					typedOrNil(t, rank, fmt.Sprintf("write round %d", round), werr)
				}
			}
			for round := 0; round < rounds; round++ {
				writeFailed := false
				for rank := range writeErrs {
					if writeErrs[rank][round] != nil {
						writeFailed = true
					}
				}
				for rank := range readErrs {
					rerr := readErrs[rank][round]
					if !writeFailed && errors.Is(rerr, ErrNoCommittedEpoch) {
						t.Errorf("rank %d, read round %d: %v after a write that committed everywhere", rank, round, rerr)
					}
					typedOrNil(t, rank, fmt.Sprintf("read round %d", round), rerr)
				}
			}
		})
	}
}

func TestChaosClientCrashRecovers(t *testing.T) {
	// A non-master compute node crashes. Every surviving rank must get a
	// typed error (or succeed, for operations that do not need the dead
	// node's data), nobody may deadlock, and after Heal the same
	// deployment completes a verified round trip.
	cfg, specs := chaosSpecs(3, 2)
	plan := mpi.NewFaultPlan(7)
	comms := wrapWorld(cfg, plan)
	barrier := newBarrier(cfg.NumClients)
	const victim = 2

	opErrs := make([][]error, cfg.NumClients)
	_, err := RunWith(cfg, comms, memDisks(cfg.NumServers), func(cl *Client) error {
		bufs := makeBufs(cl, specs, true)
		barrier()
		if cl.Rank() == 0 {
			plan.CrashRank(victim)
		}
		barrier()
		werr := cl.WriteArrays(".crashed", specs, bufs)
		opErrs[cl.Rank()] = append(opErrs[cl.Rank()], werr)
		if cl.Rank() != victim && werr == nil {
			// A write cannot complete without the victim's data.
			return errors.New("write succeeded despite a crashed participant")
		}
		barrier()
		if cl.Rank() == 0 {
			plan.Heal()
		}
		barrier()
		if werr := cl.WriteArrays(".clean", specs, bufs); werr != nil {
			return fmt.Errorf("post-heal write: %w", werr)
		}
		got := makeBufs(cl, specs, false)
		if rerr := cl.ReadArrays(".clean", specs, got); rerr != nil {
			return fmt.Errorf("post-heal read: %w", rerr)
		}
		return checkBufs(cl, specs, got)
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, errs := range opErrs {
		for i, oerr := range errs {
			if rank != victim && oerr == nil {
				continue // already vetted above; nil is impossible but typedOrNil allows it
			}
			typedOrNil(t, rank, fmt.Sprintf("op %d", i), oerr)
		}
	}
	if plan.Stats().CrashedSends == 0 {
		t.Error("crash injected no faults; the schedule never bit")
	}
}

// TestChaosTotalLossOverTCPRecovers is the acceptance scenario: total
// message loss on the TCP transport makes every compute node return a
// typed timeout error within the operation budget — no deadlock — and
// once the network heals, a fresh collective on the very same
// deployment succeeds with verified data.
func TestChaosTotalLossOverTCPRecovers(t *testing.T) {
	cfg := Config{
		NumClients:    2,
		NumServers:    2,
		SubchunkBytes: 4 << 10,
		OpTimeout:     700 * time.Millisecond,
		PullRetries:   2,
	}
	shape := []int{32, 16}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{cfg.NumClients})
	disk := array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{cfg.NumServers})
	specs := []ArraySpec{{Name: "lossy", ElemSize: 4, Mem: mem, Disk: disk}}

	plan := mpi.NewFaultPlan(42)
	plan.DropProb = 1.0 // nothing gets through

	raws, shut, err := hubWorld(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	barrier := newBarrier(cfg.NumClients)
	bound := 3*cfg.OpTimeout + 2*time.Second
	errs := make([]error, cfg.WorldSize())
	var wg sync.WaitGroup
	for r, raw := range raws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer mpi.CloseComm(raw)
			comm := mpi.WrapFault(raw, plan, clock.NewReal())
			if cfg.IsServer(r) {
				errs[r] = runServerNode(cfg, comm, storage.NewMemDisk())
				return
			}
			errs[r] = runClientNode(cfg, comm, func(cl *Client) error {
				bufs := makeBufs(cl, specs, true)
				start := time.Now()
				werr := cl.WriteArrays("", specs, bufs)
				elapsed := time.Since(start)
				if !errors.Is(werr, ErrTimeout) && !errors.Is(werr, ErrPeerLost) {
					return fmt.Errorf("under total loss, write returned %v, want a typed failure", werr)
				}
				if elapsed > bound {
					return fmt.Errorf("rank %d unstuck only after %v (budget %v)", cl.Rank(), elapsed, cfg.OpTimeout)
				}
				barrier()
				if cl.Rank() == 0 {
					plan.Heal()
				}
				barrier()
				if werr := cl.WriteArrays("", specs, bufs); werr != nil {
					return fmt.Errorf("post-heal write: %w", werr)
				}
				got := makeBufs(cl, specs, false)
				if rerr := cl.ReadArrays("", specs, got); rerr != nil {
					return fmt.Errorf("post-heal read: %w", rerr)
				}
				return checkBufs(cl, specs, got)
			})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if err := shut(); err != nil {
		t.Fatalf("hub: %v", err)
	}
}

// TestChaosRetriesMaskModerateLoss pins down the retry machinery: with
// loss low enough for PullRetries to paper over, operations should
// mostly succeed and the servers' retry counters must show the masking
// actually happened across a set of seeds.
func TestChaosRetriesMaskModerateLoss(t *testing.T) {
	var retries int64
	successes := 0
	for seed := int64(1); seed <= 4; seed++ {
		cfg, specs := chaosSpecs(2, 2)
		cfg.PullRetries = 4
		plan := mpi.NewFaultPlan(seed)
		plan.DropProb = 0.15
		comms := wrapWorld(cfg, plan)
		barrier := newBarrier(cfg.NumClients)
		servers := make([]*Server, 0, cfg.NumServers)
		var mu sync.Mutex

		disks := memDisks(cfg.NumServers)
		clk := clock.NewReal()
		var wg sync.WaitGroup
		errs := make([]error, cfg.WorldSize())
		for r := 0; r < cfg.NumClients; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				errs[r] = runClientNode(cfg, comms[r], func(cl *Client) error {
					werr := cl.WriteArrays("", specs, makeBufs(cl, specs, true))
					typedOrNil(t, cl.Rank(), "write", werr)
					if werr == nil {
						mu.Lock()
						successes++
						mu.Unlock()
					}
					// Heal before returning so the shutdown handshake
					// itself cannot be eaten by the loss schedule.
					barrier()
					if cl.Rank() == 0 {
						plan.Heal()
					}
					barrier()
					return nil
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
			if err != nil {
				t.Fatalf("seed %d, rank %d: %v", seed, r, err)
			}
		}
		for _, srv := range servers {
			retries += srv.Stats().Retries
		}
	}
	if retries == 0 {
		t.Error("15% loss never triggered a pull retry across 4 seeds")
	}
	if successes == 0 {
		t.Error("no write ever succeeded; retries are not masking loss")
	}
	t.Logf("retries=%d, successful client ops=%d", retries, successes)
}
