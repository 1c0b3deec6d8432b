package mpi

import (
	"fmt"
	"hash/crc32"
	"math/bits"
	"strconv"
	"strings"
	"time"
)

// Topology describes a two-level interconnect: ranks are grouped into
// racks of RackSize, every in-rack hop uses the Local link, and a
// cross-rack hop additionally traverses the source rack's uplink and
// the destination rack's downlink through a spine that adds
// CrossLatency. Each rack's uplink carries RackSize node ports worth of
// traffic but only RackSize/Oversub worth of capacity — Oversub > 1 is
// the classic oversubscribed-rack fat-tree compromise.
//
// SendOverhead is the per-message sender CPU occupancy (the LogP
// model's "o"): a rank fanning a control frame out to N peers holds its
// egress for N*SendOverhead before any bytes move, which is exactly why
// flat broadcast stops scaling and a tree of depth log N wins.
//
// The zero value is not a valid topology; a nil *Topology everywhere in
// the stack means "flat network" and reproduces the original uniform
// LinkConfig charge model bit-for-bit.
type Topology struct {
	// RackSize is the number of consecutive ranks per rack (> 1).
	RackSize int
	// Local is the in-rack link. A zero value inherits the deployment's
	// base LinkConfig (SP2Link in the simulations).
	Local LinkConfig
	// CrossLatency is the extra one-way latency of the spine traversal
	// added to every cross-rack message.
	CrossLatency time.Duration
	// Oversub divides each rack's uplink capacity: uplink bandwidth is
	// RackSize*Local.Bandwidth/Oversub. 1 means full bisection.
	Oversub float64
	// SendOverhead is charged on the sender's egress once per message.
	SendOverhead time.Duration
}

// Default spine parameters used by the presets, chosen so a cross-rack
// hop costs roughly 3x an in-rack hop at SP2 scale and fan-out
// serialization is visible without dwarfing payload transfer times.
const (
	defaultCrossLatency = 130 * time.Microsecond
	defaultSendOverhead = 25 * time.Microsecond
)

// Validate reports whether the topology is well formed.
func (t *Topology) Validate() error {
	if t == nil {
		return nil
	}
	if t.RackSize < 2 {
		return fmt.Errorf("mpi: topology rack size %d, need >= 2", t.RackSize)
	}
	if t.Oversub < 1 {
		return fmt.Errorf("mpi: topology oversubscription %g, need >= 1", t.Oversub)
	}
	if t.CrossLatency < 0 || t.SendOverhead < 0 {
		return fmt.Errorf("mpi: topology has negative cost")
	}
	if t.Local.Bandwidth < 0 || t.Local.Latency < 0 {
		return fmt.Errorf("mpi: topology local link has negative cost")
	}
	return nil
}

// RackOf returns the rack index of rank. A nil topology is one flat
// rack.
func (t *Topology) RackOf(rank int) int {
	if t == nil || t.RackSize <= 0 {
		return 0
	}
	return rank / t.RackSize
}

// CrossRack reports whether a and b sit in different racks.
func (t *Topology) CrossRack(a, b int) bool {
	return t.RackOf(a) != t.RackOf(b)
}

// Racks returns the number of racks a world of the given size spans.
func (t *Topology) Racks(size int) int {
	if t == nil || t.RackSize <= 0 || size <= 0 {
		return 1
	}
	return (size + t.RackSize - 1) / t.RackSize
}

// LocalLink resolves the in-rack link against a deployment base link;
// nil topologies use the base unchanged.
func (t *Topology) LocalLink(base LinkConfig) LinkConfig {
	if t == nil {
		return base
	}
	return t.local(base)
}

// local resolves the in-rack link, falling back to base when the
// topology does not override it.
func (t *Topology) local(base LinkConfig) LinkConfig {
	if t.Local.Bandwidth > 0 || t.Local.Latency > 0 {
		l := t.Local
		if l.Bandwidth <= 0 {
			l.Bandwidth = base.Bandwidth
		}
		if l.Latency <= 0 {
			l.Latency = base.Latency
		}
		return l
	}
	return base
}

// UplinkBandwidth is the capacity of one rack's spine port given the
// resolved in-rack link.
func (t *Topology) UplinkBandwidth(base LinkConfig) float64 {
	l := t.local(base)
	return float64(t.RackSize) * l.Bandwidth / t.Oversub
}

// String renders the canonical key=value form accepted by
// ParseTopology; two topologies with equal strings charge identically.
func (t *Topology) String() string {
	if t == nil {
		return "flat"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "rack=%d,oversub=%g,xlat=%s,o=%s", t.RackSize, t.Oversub, t.CrossLatency, t.SendOverhead)
	if t.Local.Bandwidth > 0 || t.Local.Latency > 0 {
		fmt.Fprintf(&b, ",lat=%s,bw=%g", t.Local.Latency, t.Local.Bandwidth)
	}
	return b.String()
}

// Fingerprint is a stable hash of the charge model, used to key plan
// caches: plans ordered for one topology must not be replayed under
// another. A nil topology is fingerprint 0.
func (t *Topology) Fingerprint() uint32 {
	if t == nil {
		return 0
	}
	return crc32.Checksum([]byte(t.String()), crc32.MakeTable(crc32.Castagnoli))
}

// ParseTopology parses a topology description. Accepted forms:
//
//	""            no topology (nil): the flat uniform network
//	"flat"        same as ""
//	"fat-tree:N"  racks of N ranks, full bisection (oversub 1)
//	"oversub:N:F" racks of N ranks, uplinks oversubscribed F:1
//	key=value     comma-separated: rack=N, oversub=F, xlat=DUR, o=DUR,
//	              lat=DUR, bw=BYTES/S (lat/bw override the local link)
//
// Durations use Go syntax ("130us"); presets fill CrossLatency and
// SendOverhead with defaults sized for the SP2 link.
func ParseTopology(s string) (*Topology, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "flat" {
		return nil, nil
	}
	t := &Topology{Oversub: 1, CrossLatency: defaultCrossLatency, SendOverhead: defaultSendOverhead}
	if rest, ok := strings.CutPrefix(s, "fat-tree:"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil {
			return nil, fmt.Errorf("mpi: bad fat-tree rack size %q: %v", rest, err)
		}
		t.RackSize = n
		return t, t.Validate()
	}
	if rest, ok := strings.CutPrefix(s, "oversub:"); ok {
		parts := strings.SplitN(rest, ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("mpi: oversub preset needs N:F, got %q", rest)
		}
		n, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("mpi: bad oversub rack size %q: %v", parts[0], err)
		}
		f, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("mpi: bad oversub factor %q: %v", parts[1], err)
		}
		t.RackSize, t.Oversub = n, f
		return t, t.Validate()
	}
	if !strings.Contains(s, "=") {
		return nil, fmt.Errorf("mpi: unknown topology preset %q", s)
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("mpi: topology field %q is not key=value", kv)
		}
		var err error
		switch strings.TrimSpace(k) {
		case "rack":
			t.RackSize, err = strconv.Atoi(v)
		case "oversub":
			t.Oversub, err = strconv.ParseFloat(v, 64)
		case "xlat":
			t.CrossLatency, err = time.ParseDuration(v)
		case "o":
			t.SendOverhead, err = time.ParseDuration(v)
		case "lat":
			t.Local.Latency, err = time.ParseDuration(v)
		case "bw":
			t.Local.Bandwidth, err = strconv.ParseFloat(v, 64)
		default:
			return nil, fmt.Errorf("mpi: unknown topology field %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("mpi: bad topology field %q: %v", kv, err)
		}
	}
	return t, t.Validate()
}

// Broadcast trees. TreeChildren synthesizes, at every rank
// independently, the same broadcast schedule over an arbitrary
// participant list: a binomial tree on a flat network, and a rack-major
// two-level tree (binomial over rack leaders, then binomial within each
// rack) when a topology with racks is present — so at most one message
// of the whole broadcast crosses into each rack.
//
// members must be identical (same order) at every caller; both root and
// self are world ranks that appear in members. The synthesis is pure
// arithmetic on the list, so a frame's receiver can derive its own
// children from frame content alone and forward without any extra
// coordination state.

// TreeChildren returns the world ranks self must forward to.
func TreeChildren(members []int, root, self int, topo *Topology) []int {
	n := len(members)
	if n <= 1 {
		return nil
	}
	ri, si := indexOf(members, root), indexOf(members, self)
	if ri < 0 || si < 0 {
		return nil
	}
	if topo == nil || topo.RackSize <= 1 {
		return binomialChildren(members, ri, si)
	}
	return rackChildren(members, ri, si, topo)
}

func indexOf(members []int, rank int) int {
	for i, m := range members {
		if m == rank {
			return i
		}
	}
	return -1
}

// binomialChildren computes the standard binomial broadcast tree over
// member positions, rotated so position ri is the root: with relative
// position r = (pos - ri) mod n, the parent of r clears r's lowest set
// bit and the children of r are r + 2^k for every 2^k below that bit
// (the root's bound is the next power of two >= n).
func binomialChildren(members []int, ri, si int) []int {
	n := len(members)
	r := si - ri
	if r < 0 {
		r += n
	}
	bound := 1 << bits.Len(uint(n-1)) // next pow2 >= n
	if r != 0 {
		bound = r & -r // lowest set bit
	}
	var out []int
	for k := 1; k < bound; k <<= 1 {
		child := r + k
		if child >= n {
			break
		}
		out = append(out, members[(child+ri)%n])
	}
	return out
}

// rackPartition groups member positions by rack, preserving member
// order, with the root's rack led by the root itself.
type rackPartition struct {
	order []int         // racks in first-appearance order
	pos   map[int][]int // rack -> positions in members
	ri    int           // root position
	topo  *Topology
	root  int
}

func partitionRacks(members []int, ri int, topo *Topology) *rackPartition {
	p := &rackPartition{pos: make(map[int][]int), ri: ri, topo: topo, root: members[ri]}
	for i, m := range members {
		rk := topo.RackOf(m)
		if _, seen := p.pos[rk]; !seen {
			p.order = append(p.order, rk)
		}
		p.pos[rk] = append(p.pos[rk], i)
	}
	return p
}

// leaderOf returns the member position of rack rk's leader.
func (p *rackPartition) leaderOf(rk int) int {
	if rk == p.topo.RackOf(p.root) {
		return p.ri
	}
	return p.pos[rk][0]
}

// leaders lists the leader world ranks in rack order.
func (p *rackPartition) leaders(members []int) []int {
	out := make([]int, 0, len(p.order))
	for _, rk := range p.order {
		out = append(out, members[p.leaderOf(rk)])
	}
	return out
}

// rackMembers lists rack rk's world ranks in member order.
func (p *rackPartition) rackMembers(members []int, rk int) []int {
	out := make([]int, 0, len(p.pos[rk]))
	for _, i := range p.pos[rk] {
		out = append(out, members[i])
	}
	return out
}

// rackChildren builds the rack-major two-level tree: the first member
// of each rack is that rack's leader (the root leads its own rack);
// leaders form a binomial tree rooted at the root, and each rack's
// members form a binomial tree under their leader. At most one message
// of the broadcast enters each rack.
func rackChildren(members []int, ri, si int, topo *Topology) []int {
	p := partitionRacks(members, ri, topo)
	self := members[si]
	rk := topo.RackOf(self)
	var out []int
	if si == p.leaderOf(rk) {
		leaders := p.leaders(members)
		out = append(out, binomialChildren(leaders, indexOf(leaders, members[ri]), indexOf(leaders, self))...)
	}
	local := p.rackMembers(members, rk)
	lead := members[p.leaderOf(rk)]
	out = append(out, binomialChildren(local, indexOf(local, lead), indexOf(local, self))...)
	return out
}
