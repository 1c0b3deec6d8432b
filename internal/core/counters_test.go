package core

import (
	"reflect"
	"sync"
	"testing"

	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/obs"
)

// TestCounterTableCoversStats pins the table to the snapshot type: one
// row per Stats field, every row named and wired.
func TestCounterTableCoversStats(t *testing.T) {
	if n := reflect.TypeOf(Stats{}).NumField(); n != int(numCounters) {
		t.Fatalf("Stats has %d fields, the counter table %d rows", n, numCounters)
	}
	var st Stats
	seen := map[*int64]bool{}
	for i, row := range counterTable {
		if row.name == "" || row.field == nil {
			t.Fatalf("counter %d has no table row", i)
		}
		if f := row.field(&st); seen[f] {
			t.Errorf("counter %d (%s) shares its Stats field with another row", i, row.name)
		} else {
			seen[f] = true
		}
	}
}

// TestRegistryEqualsSumOfNodeStats: every event is counted once and
// propagates, so after a write and a read the registry's cluster total
// of each counter is exactly the sum of the nodes' own snapshots.
func TestRegistryEqualsSumOfNodeStats(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{NumClients: 4, NumServers: 2, SubchunkBytes: 4 << 10, Pipeline: 2, Metrics: reg}
	specs := []ArraySpec{mustSpec1D(t, "ctr", 256<<10, cfg.NumClients, cfg.NumServers)}

	world := mpi.NewWorld(cfg.WorldSize())
	clk := clock.NewReal()
	var mu sync.Mutex
	var nodes []Stats
	keep := func(st Stats) {
		mu.Lock()
		nodes = append(nodes, st)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	errs := make([]error, cfg.WorldSize())
	for i := 0; i < cfg.NumServers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			srv := NewServer(cfg, world.Comm(cfg.ServerRank(i)), memDisks(1)[0], clk)
			errs[cfg.ServerRank(i)] = srv.Serve()
			keep(srv.Stats())
		}(i)
	}
	for r := 0; r < cfg.NumClients; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = clientMain(cfg, world.Comm(r), clk, func(cl *Client) error {
				defer func() { keep(cl.Stats()) }()
				if err := cl.WriteArrays("", specs, makeBufs(cl, specs, true)); err != nil {
					return err
				}
				return cl.ReadArrays("", specs, makeBufs(cl, specs, false))
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// Clients snapshot before the shutdown handshake, which is raw
	// transport traffic no counter sees; servers count the shutdown frame
	// they receive, and report after it.
	for i, row := range counterTable {
		var sum int64
		for n := range nodes {
			sum += *row.field(&nodes[n])
		}
		got := reg.Counter(row.name).Value()
		if got != sum {
			t.Errorf("%s: registry %d, nodes sum to %d", row.name, got, sum)
		}
		if (counterID(i) == cMsgsSent || counterID(i) == cBytesRecv) && got == 0 {
			t.Errorf("%s stayed zero through a write and a read", row.name)
		}
	}
}

// TestCounterCosts: with no registry an Add allocates nothing, and an
// operation's private block is a single allocation.
func TestCounterCosts(t *testing.T) {
	node := newNodeCounters(nil)
	if n := testing.AllocsPerRun(100, func() { node[cMsgsSent].Add(1) }); n != 0 {
		t.Errorf("Add on a node block allocates %v times", n)
	}
	var op *counters
	if n := testing.AllocsPerRun(100, func() { op = newOpCounters(node) }); n != 1 {
		t.Errorf("an operation block costs %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { op[cBytesSent].Add(7) }); n != 0 {
		t.Errorf("Add on an operation block allocates %v times", n)
	}
	if got := node.snapshot().BytesSent; got != op.snapshot().BytesSent || got == 0 {
		t.Errorf("operation adds did not reach the node block: node %d, op %d", got, op.snapshot().BytesSent)
	}
}
