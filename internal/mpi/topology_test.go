package mpi

import (
	"fmt"
	"testing"
	"time"

	"panda/internal/vtime"
)

func TestParseTopologyPresets(t *testing.T) {
	for _, s := range []string{"", "flat", "  flat "} {
		topo, err := ParseTopology(s)
		if err != nil || topo != nil {
			t.Fatalf("ParseTopology(%q) = %v, %v; want nil, nil", s, topo, err)
		}
	}
	ft, err := ParseTopology("fat-tree:16")
	if err != nil {
		t.Fatal(err)
	}
	if ft.RackSize != 16 || ft.Oversub != 1 || ft.CrossLatency != defaultCrossLatency || ft.SendOverhead != defaultSendOverhead {
		t.Fatalf("fat-tree:16 = %+v", ft)
	}
	ov, err := ParseTopology("oversub:32:4")
	if err != nil {
		t.Fatal(err)
	}
	if ov.RackSize != 32 || ov.Oversub != 4 {
		t.Fatalf("oversub:32:4 = %+v", ov)
	}
	kv, err := ParseTopology("rack=8,oversub=2,xlat=200us,o=10us,lat=50us,bw=1e8")
	if err != nil {
		t.Fatal(err)
	}
	want := &Topology{RackSize: 8, Oversub: 2, CrossLatency: 200 * time.Microsecond,
		SendOverhead: 10 * time.Microsecond,
		Local:        LinkConfig{Latency: 50 * time.Microsecond, Bandwidth: 1e8}}
	if *kv != *want {
		t.Fatalf("kv form = %+v, want %+v", kv, want)
	}
	for _, bad := range []string{"fat-tree:x", "fat-tree:1", "oversub:8", "oversub:8:0.5",
		"nonsense", "rack=0", "rack=8,zzz=1", "rack=8,xlat=bogus"} {
		if _, err := ParseTopology(bad); err == nil {
			t.Errorf("ParseTopology(%q) accepted", bad)
		}
	}
}

func TestTopologyFingerprintDistinguishes(t *testing.T) {
	a, _ := ParseTopology("fat-tree:16")
	b, _ := ParseTopology("fat-tree:32")
	c, _ := ParseTopology("oversub:16:4")
	if a.Fingerprint() == b.Fingerprint() || a.Fingerprint() == c.Fingerprint() {
		t.Fatalf("fingerprint collision: %d %d %d", a.Fingerprint(), b.Fingerprint(), c.Fingerprint())
	}
	if (*Topology)(nil).Fingerprint() != 0 {
		t.Fatal("nil topology fingerprint must be 0")
	}
	a2, _ := ParseTopology("fat-tree:16")
	if a.Fingerprint() != a2.Fingerprint() {
		t.Fatal("equal topologies must share a fingerprint")
	}
}

func FuzzParseTopology(f *testing.F) {
	for _, seed := range []string{"", "flat", "fat-tree:16", "oversub:32:4",
		"rack=8,oversub=2,xlat=200us,o=10us,lat=50us,bw=1e8", "rack=-1", "o=,o=", "rack=8,"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		topo, err := ParseTopology(s)
		if err != nil {
			return
		}
		if topo == nil {
			return
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("ParseTopology(%q) returned invalid topology: %v", s, err)
		}
		// The canonical form must round-trip to the same charge model.
		again, err := ParseTopology(topo.String())
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", topo.String(), s, err)
		}
		if again.Fingerprint() != topo.Fingerprint() {
			t.Fatalf("round-trip changed fingerprint: %q -> %q", s, topo.String())
		}
	})
}

// worldMembers is the identity member list 0..n-1.
func worldMembers(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// checkTree validates a synthesized broadcast tree over members: every
// member is reached exactly once from the root.
func checkTree(t *testing.T, members []int, root int, topo *Topology) map[int]int {
	t.Helper()
	depth := map[int]int{root: 0}
	frontier := []int{root}
	for len(frontier) > 0 {
		var next []int
		for _, m := range frontier {
			for _, c := range TreeChildren(members, root, m, topo) {
				if _, seen := depth[c]; seen {
					t.Fatalf("rank %d reached twice (members=%v root=%d)", c, members, root)
				}
				depth[c] = depth[m] + 1
				next = append(next, c)
			}
		}
		frontier = next
	}
	if len(depth) != len(members) {
		t.Fatalf("tree covers %d of %d members (members=%v root=%d)", len(depth), len(members), members, root)
	}
	return depth
}

func TestBinomialTreeProperties(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13, 64, 100} {
		members := worldMembers(n)
		for _, root := range []int{0, n / 2, n - 1} {
			depth := checkTree(t, members, root, nil)
			// Binomial depth is ceil(log2 n).
			want := 0
			for 1<<want < n {
				want++
			}
			for r, d := range depth {
				if d > want {
					t.Fatalf("n=%d root=%d: rank %d at depth %d > %d", n, root, r, d, want)
				}
			}
		}
	}
}

func TestBinomialTreeSparseMembers(t *testing.T) {
	// Member lists with holes (dead ranks excluded) must still form a
	// valid tree — this is the shape the core layer feeds in after a
	// failover.
	members := []int{4, 7, 9, 12, 31, 40}
	for _, root := range members {
		checkTree(t, members, root, nil)
	}
}

func TestRackTreeOneMessagePerRack(t *testing.T) {
	topo := &Topology{RackSize: 8, Oversub: 1}
	members := worldMembers(64)
	root := 3
	depth := checkTree(t, members, root, topo)
	_ = depth
	// Count tree edges entering each rack: exactly one for every rack
	// but the root's.
	enter := map[int]int{}
	for _, m := range members {
		for _, c := range TreeChildren(members, root, m, topo) {
			if topo.CrossRack(m, c) {
				enter[topo.RackOf(c)]++
			}
		}
	}
	for rk := 0; rk < topo.Racks(len(members)); rk++ {
		want := 1
		if rk == topo.RackOf(root) {
			want = 0
		}
		if enter[rk] != want {
			t.Fatalf("rack %d entered by %d cross-rack edges, want %d", rk, enter[rk], want)
		}
	}
}

// runSimTopoWorld is runSimWorld with a topology installed.
func runSimTopoWorld(t *testing.T, size int, cfg LinkConfig, topo *Topology, fn func(Comm)) time.Duration {
	t.Helper()
	sim := vtime.New()
	w := NewSimWorld(sim, size, cfg)
	w.SetTopology(topo)
	for r := 0; r < size; r++ {
		r := r
		sim.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			fn(w.Bind(r, p))
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return sim.Now()
}

func TestSimTopologyInRackCharge(t *testing.T) {
	cfg := SP2Link()
	topo := &Topology{RackSize: 4, Oversub: 1,
		CrossLatency: 130 * time.Microsecond, SendOverhead: 25 * time.Microsecond}
	const n = 34000 // 1 ms on the SP2 link
	elapsed := runSimTopoWorld(t, 2, cfg, topo, func(c Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 5, make([]byte, n))
		case 1:
			c.Recv(0, 5)
		}
	})
	want := topo.SendOverhead + cfg.Latency + cfg.txTime(n)
	if elapsed != want {
		t.Fatalf("in-rack delivery at %v, want %v", elapsed, want)
	}
}

func TestSimTopologyCrossRackCharge(t *testing.T) {
	cfg := SP2Link()
	topo := &Topology{RackSize: 2, Oversub: 1,
		CrossLatency: 130 * time.Microsecond, SendOverhead: 25 * time.Microsecond}
	const n = 34000
	elapsed := runSimTopoWorld(t, 4, cfg, topo, func(c Comm) {
		switch c.Rank() {
		case 0:
			c.Send(3, 5, make([]byte, n)) // rack 0 -> rack 1
		case 3:
			c.Recv(0, 5)
		}
	})
	// Cut-through across four hops: overhead, local latency into the
	// uplink, spine latency, local latency off the downlink, last bit
	// paced by the (slowest) local wire.
	want := topo.SendOverhead + 2*cfg.Latency + topo.CrossLatency + cfg.txTime(n)
	if elapsed != want {
		t.Fatalf("cross-rack delivery at %v, want %v", elapsed, want)
	}
}

func TestSimTopologyOversubSerializesUplink(t *testing.T) {
	cfg := SP2Link()
	// Rack of 4 with a 4:1 oversubscribed uplink: the uplink runs at
	// exactly one node-port bandwidth, so two concurrent cross-rack
	// senders from one rack serialize on it.
	topo := &Topology{RackSize: 4, Oversub: 4,
		CrossLatency: 0, SendOverhead: 0}
	const n = 340000 // 10 ms per message on one port
	elapsed := runSimTopoWorld(t, 8, cfg, topo, func(c Comm) {
		switch c.Rank() {
		case 0:
			c.Send(4, 5, make([]byte, n))
		case 1:
			c.Send(5, 5, make([]byte, n))
		case 4:
			c.Recv(0, 5)
		case 5:
			c.Recv(1, 5)
		}
	})
	// Both messages need the shared uplink for ~10ms each; if they ran
	// in parallel the world would finish in ~10ms, serialized ~20ms.
	if elapsed < 2*cfg.txTime(n) {
		t.Fatalf("oversubscribed uplink did not serialize: %v < %v", elapsed, 2*cfg.txTime(n))
	}
}
