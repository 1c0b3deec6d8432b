package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"panda/internal/array"
	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// topoplan_test.go covers the topology-aware schedules: the pull-plan
// reordering heuristics, plan-cache keying by topology fingerprint,
// the zero-allocation control fan-out, and the end-to-end behavior of
// tree broadcasts — bit-exact round trips, determinism, and the chaos
// guarantees matching the flat schedule's.

func testTopo(rackSize int) *mpi.Topology {
	return &mpi.Topology{RackSize: rackSize, Oversub: 1}
}

// pieceSub builds a sub-chunk whose pieces come from the given clients,
// in order.
func pieceSub(clients ...int) subchunkJob {
	sj := subchunkJob{Bytes: 64}
	for _, c := range clients {
		sj.Pieces = append(sj.Pieces, piece{Client: c})
	}
	return sj
}

func identityRank(i int) int { return i }

func TestOrderPiecesCrossRackFirst(t *testing.T) {
	topo := testTopo(4) // racks {0..3}, {4..7}, ...
	self := 1           // rack 0
	sub := pieceSub(0, 2, 5, 3, 6)
	orderPieces(sub.Pieces, topo, self, identityRank)
	got := make([]int, len(sub.Pieces))
	for i, pc := range sub.Pieces {
		got[i] = pc.Client
	}
	// Cross-rack clients (5, 6) first in original relative order, then
	// in-rack ones (0, 2, 3) in original relative order: stable.
	want := []int{5, 6, 0, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("piece order = %v, want %v", got, want)
		}
	}
}

func TestOrderSubchunksRackAffinityAndRotation(t *testing.T) {
	// World: 8 clients in racks {0-3} and {4-7}, servers at ranks 8, 9
	// (rack 2). Sub-chunks alternate between rack-0 and rack-1 clients.
	topo := testTopo(4)
	worldSize := 10
	subs := []subchunkJob{pieceSub(0), pieceSub(4), pieceSub(1), pieceSub(5)}

	// Server rank 8 (rack 2, index 0): rotation starts at rack
	// (2+0)%3 = 2 (empty), so rack 0 drains before rack 1 each round.
	a := append([]subchunkJob(nil), subs...)
	orderSubchunks(a, topo, 8, 0, worldSize, identityRank)
	gotA := []int{a[0].Pieces[0].Client, a[1].Pieces[0].Client, a[2].Pieces[0].Client, a[3].Pieces[0].Client}
	wantA := []int{0, 4, 1, 5}
	for i := range wantA {
		if gotA[i] != wantA[i] {
			t.Fatalf("server index 0: order %v, want %v", gotA, wantA)
		}
	}

	// Server rank 9 (rack 2, index 1): rotation starts at rack
	// (2+1)%3 = 0 ... same start modulo the rack count of 3, but a
	// different stagger: (0+…) — rack 0 first again, rotated by one
	// rack relative to index 0 only when the rack count differs. With
	// three racks the stagger lands on rack 0, keeping both orders
	// deterministic; assert determinism rather than a specific stagger.
	b1 := append([]subchunkJob(nil), subs...)
	b2 := append([]subchunkJob(nil), subs...)
	orderSubchunks(b1, topo, 9, 1, worldSize, identityRank)
	orderSubchunks(b2, topo, 9, 1, worldSize, identityRank)
	for i := range b1 {
		if b1[i].Pieces[0].Client != b2[i].Pieces[0].Client {
			t.Fatal("orderSubchunks is not deterministic")
		}
	}

	// Nothing lost, nothing duplicated.
	seen := map[int]bool{}
	for _, sj := range a {
		seen[sj.Pieces[0].Client] = true
	}
	if len(seen) != len(subs) {
		t.Fatalf("reorder lost sub-chunks: kept %d of %d", len(seen), len(subs))
	}
}

func TestOrderSubchunksFlatNoop(t *testing.T) {
	// One rack (or nil topology) must leave the schedule untouched.
	subs := []subchunkJob{pieceSub(3), pieceSub(1), pieceSub(2)}
	want := []int{3, 1, 2}
	orderSubchunks(subs, testTopo(64), 5, 0, 8, identityRank)
	for i := range want {
		if subs[i].Pieces[0].Client != want[i] {
			t.Fatalf("single-rack reorder changed the schedule: %v", subs)
		}
	}
}

func TestPlanCacheKeyedByTopology(t *testing.T) {
	// The same deployment with different topologies must use different
	// plan-cache keys: a cached flat plan must never serve a topology
	// run or vice versa.
	shape := []int{16, 16}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{2})
	disk := array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{2})
	spec := ArraySpec{Name: "keyed", ElemSize: 4, Mem: mem, Disk: disk}

	keyFor := func(topo *mpi.Topology) planKey {
		cfg := Config{NumClients: 2, NumServers: 2, Topology: topo}
		world := mpi.NewWorld(cfg.WorldSize())
		s := NewServer(cfg, world.Comm(cfg.ServerRank(0)), storage.NewMemDisk(), clock.NewReal())
		key, ok := s.planKeyFor(0, spec, nil)
		if !ok {
			t.Fatal("plan unexpectedly not cacheable")
		}
		return key
	}
	flat := keyFor(nil)
	racked := keyFor(testTopo(2))
	if flat == racked {
		t.Fatal("plan keys identical across topologies")
	}
	if again := keyFor(testTopo(2)); again != racked {
		t.Fatal("plan key not stable for one topology")
	}
}

// fanoutSink is a Comm stub that takes ownership of sent frames and
// parks them for later recycling, so a measured region over it sees
// only the fan-out's own allocations (bufpool.Put itself costs one
// boxing allocation by design, which would mask the measurement).
type fanoutSink struct {
	rank, size int
	sent       [][]byte
}

func (c *fanoutSink) Rank() int                       { return c.rank }
func (c *fanoutSink) Size() int                       { return c.size }
func (c *fanoutSink) Send(to, tag int, data []byte)   {}
func (c *fanoutSink) SendOwned(to, tag int, d []byte) { c.sent = append(c.sent, d) }
func (c *fanoutSink) Isend(to, tag int, data []byte) mpi.Request {
	return nil
}
func (c *fanoutSink) Recv(from, tag int) mpi.Message { return mpi.Message{} }
func (c *fanoutSink) RecvTimeout(from, tag int, _ time.Duration) (mpi.Message, error) {
	return mpi.Message{}, mpi.ErrTimeout
}
func (c *fanoutSink) PeerLost(rank int) bool { return false }

func (c *fanoutSink) recycle() {
	for _, b := range c.sent {
		bufpool.Put(b)
	}
	c.sent = c.sent[:0]
}

// fanoutFixture builds a master server over the sink transport plus a
// ready-to-send abort frame and destination list.
func fanoutFixture(topo *mpi.Topology, pending int) (*Server, *fanoutSink, []int, []byte) {
	cfg := Config{NumClients: 4, NumServers: 8, Topology: topo}
	sink := &fanoutSink{rank: cfg.MasterServer(), size: cfg.WorldSize(), sent: make([][]byte, 0, pending)}
	s := NewServer(cfg, sink, storage.NewMemDisk(), clock.NewReal())
	raw := encodeAbort(1, 0, errors.New("chaos"))
	// Prime the pool so every GetRaw in the measured region is a hit
	// even though the sink holds frames until after the measurement.
	primed := make([][]byte, pending)
	for i := range primed {
		primed[i] = bufpool.GetRaw(len(raw))
	}
	for _, b := range primed {
		bufpool.Put(b)
	}
	return s, sink, s.serverTreeChildren(nil), raw
}

func TestControlFanoutZeroAlloc(t *testing.T) {
	const runs = 100
	s, sink, dests, raw := fanoutFixture(testTopo(4), (runs+2)*8)
	if len(dests) == 0 {
		t.Fatal("master has no tree children")
	}
	allocs := testing.AllocsPerRun(runs, func() {
		s.fanoutRaw(dests, tagControl, raw)
	})
	sink.recycle()
	if allocs != 0 {
		t.Fatalf("steady-state control fan-out allocates %.1f objects per op, want 0", allocs)
	}
}

func BenchmarkControlFanout(b *testing.B) {
	const batch = 1024
	s, sink, dests, raw := fanoutFixture(testTopo(4), batch*8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.fanoutRaw(dests, tagControl, raw)
		if len(sink.sent)+len(dests) > cap(sink.sent) {
			b.StopTimer()
			sink.recycle()
			b.StartTimer()
		}
	}
}

func TestTopoRoundTripBitExact(t *testing.T) {
	// A racked deployment must produce byte-for-byte the same committed
	// files and read-back as the flat protocol: the topology reorders
	// schedules, it never changes data placement.
	cfg := Config{NumClients: 4, NumServers: 2, SubchunkBytes: 1 << 10, Topology: testTopo(3)}
	shape := []int{12, 10}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{4})
	roundTrip(t, cfg, []ArraySpec{{Name: "topo", ElemSize: 4, Mem: mem, Disk: disk}})
}

func TestSimTopoRoundTripDeterministic(t *testing.T) {
	// End-to-end under virtual time on a racked network: data integrity
	// plus run-to-run determinism of the simulated clock.
	topo, err := mpi.ParseTopology("fat-tree:4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NumClients: 4, NumServers: 2, SubchunkBytes: 1 << 10, Topology: topo}
	shape := []int{12, 10}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{4})
	specs := []ArraySpec{{Name: "simtopo", ElemSize: 4, Mem: mem, Disk: disk}}
	run := func() (SimResult, error) {
		return RunSim(cfg, mpi.SP2Link(), func(i int, clk clock.Clock) storage.Disk {
			return storage.NewSimDisk(storage.NewMemDisk(), storage.SP2AIX(), clk)
		}, func(cl *Client) error {
			bufs := makeBufs(cl, specs, true)
			if err := cl.WriteArrays("", specs, bufs); err != nil {
				return err
			}
			got := makeBufs(cl, specs, false)
			if err := cl.ReadArrays("", specs, got); err != nil {
				return err
			}
			return checkBufs(cl, specs, got)
		})
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("racked simulation not deterministic: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

func TestChaosTopoLossySchedules(t *testing.T) {
	// The flat chaos contract must survive the switch to tree
	// schedules: under drops, dups and delays every collective on a
	// racked deployment succeeds or fails typed within its budget, and
	// the deployment works after healing.
	cfg, specs := chaosSpecs(3, 4)
	cfg.Topology = testTopo(2) // ranks {0,1},{2,3},{4,5},{6}: servers span racks
	plan := mpi.NewFaultPlan(31)
	plan.DropProb, plan.DupProb = 0.10, 0.15
	plan.DelayProb, plan.Delay = 0.10, 2*time.Millisecond
	comms := wrapWorld(cfg, plan)
	barrier := newBarrier(cfg.NumClients)

	writeErrs := make([]error, cfg.NumClients)
	_, err := RunWith(cfg, comms, memDisks(cfg.NumServers), func(cl *Client) error {
		bufs := makeBufs(cl, specs, true)
		werr := cl.WriteArrays(".lossy", specs, bufs)
		writeErrs[cl.Rank()] = werr
		barrier()
		if cl.Rank() == 0 {
			plan.Heal()
		}
		barrier()
		for try := 0; try < 6; try++ {
			if werr := cl.WriteArrays(fmt.Sprintf(".clean%d", try), specs, bufs); werr != nil {
				typedOrNil(t, cl.Rank(), "post-heal write", werr)
				barrier()
				continue
			}
			barrier()
			got := makeBufs(cl, specs, false)
			if rerr := cl.ReadArrays(fmt.Sprintf(".clean%d", try), specs, got); rerr != nil {
				typedOrNil(t, cl.Rank(), "post-heal read", rerr)
				continue
			}
			return checkBufs(cl, specs, got)
		}
		return errors.New("no clean round trip within 6 post-heal attempts")
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, werr := range writeErrs {
		typedOrNil(t, rank, "lossy write", werr)
	}
}

func TestChaosTopoInteriorServerCrash(t *testing.T) {
	// Crash an interior node of the server broadcast tree, then write.
	// The master must stamp the corpse into the request so the tree
	// routes around it (no orphaned subtree, no deadlock), the write
	// completes degraded on the survivors, and a degraded read serves
	// the full pattern back — the victim stays dead throughout.
	cfg, specs := chaosSpecs(3, 6)
	cfg.Topology = testTopo(3)
	// Members: server ranks 3..8 rooted at 3. The victim must be an
	// interior node (a child of the root that has children of its own).
	members := make([]int, cfg.NumServers)
	for i := range members {
		members[i] = cfg.ServerRank(i)
	}
	victim := -1
	for _, c := range mpi.TreeChildren(members, cfg.MasterServer(), cfg.MasterServer(), cfg.Topology) {
		if len(mpi.TreeChildren(members, cfg.MasterServer(), c, cfg.Topology)) > 0 {
			victim = c
			break
		}
	}
	if victim < 0 {
		t.Fatal("no interior node in the server tree; enlarge the deployment")
	}

	plan := mpi.NewFaultPlan(17)
	comms := wrapWorld(cfg, plan)
	disks := memDisks(cfg.NumServers)
	clk := clock.NewReal()
	barrier := newBarrier(cfg.NumClients)
	errs := make([]error, cfg.WorldSize())
	var servers []*Server
	var mu sync.Mutex
	var wg sync.WaitGroup
	for r := 0; r < cfg.NumClients; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = runClientNode(cfg, comms[r], func(cl *Client) error {
				bufs := makeBufs(cl, specs, true)
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
			continue // the injected death surfaces however the transport saw it
		}
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	var degraded int64
	for _, srv := range servers {
		degraded += srv.Stats().Degraded
	}
	if degraded == 0 {
		t.Error("no operation recorded as degraded; the corpse was never routed around")
	}
	if plan.Stats().CrashedSends == 0 {
		t.Error("crash injected no faults; the victim never mattered")
	}
}
