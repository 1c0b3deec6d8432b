package core

import (
	"sort"

	"panda/internal/bufpool"
	"panda/internal/mpi"
)

// Communication schedules.
//
// Control plane: every master-originated broadcast — request relay,
// abort, commit decision, reassignment rebroadcast (which doubles as
// the membership-epoch announcement), and the client-side completion
// relay — flows down one tree, derived by controlChildren. With
// Config.Topology set it is synthesized for the machine
// (mpi.TreeChildren: binomial, rack-major two-level when the topology
// has racks) instead of a flat O(N) fan-out at the master; with no
// topology (or Config.FlatSchedules) it is the star — the root sends to
// every member, leaves forward nothing — which is the paper's flat
// schedule, frame for frame. Every receiver of such a frame forwards it
// to its own children before acting on it, so a failure outcome reaches
// the subtree even when the receiver then unwinds. The tree is derived
// at each hop from frame content alone (the attempt's Deads list), so
// no extra coordination state crosses the wire.
//
// Data plane: with a topology each server's pull schedule is reordered
// (orderSubchunks below) — rack-affinity first, remaining racks
// round-robin with a per-server stagger, and within each sub-chunk the
// deepest links first.

// treeEnabled reports whether topology-synthesized schedules are on.
func (c Config) treeEnabled() bool { return c.Topology != nil && !c.FlatSchedules }

// controlChildren lists the world ranks self forwards a control frame
// to, in a group of n members where member i has world rank rankOf(i),
// member 0 is the root, and dead members are left out.
func controlChildren(cfg Config, n int, rankOf func(int) int, dead map[int]bool, self int) []int {
	star := !cfg.treeEnabled()
	if star && self != rankOf(0) {
		return nil // a star's leaves have no children
	}
	members := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !dead[i] && !(star && i == 0) {
			members = append(members, rankOf(i))
		}
	}
	if star {
		return members // the root reaches every other alive member, in index order
	}
	return mpi.TreeChildren(members, rankOf(0), self, cfg.Topology)
}

// serverTreeChildren returns the server world ranks this node forwards
// a control frame to: its children in the broadcast tree over the
// attempt's alive servers, rooted at the master server.
func (s *Server) serverTreeChildren(dead map[int]bool) []int {
	return controlChildren(s.cfg, s.cfg.NumServers, func(i int) int { return s.cfg.ServerRank(i) }, dead, s.comm.Rank())
}

// fanoutRaw delivers one already-encoded control frame to every rank
// in dests. The frame is encoded exactly once by the caller; each send
// hands the transport a pooled copy, so a steady-state fan-out
// allocates nothing (asserted by TestControlFanoutZeroAlloc, profiled
// by BenchmarkControlFanout).
func (s *Server) fanoutRaw(dests []int, tag int, raw []byte) {
	for _, rank := range dests {
		cp := bufpool.GetRaw(len(raw))
		copy(cp, raw)
		s.send(rank, tag, cp)
	}
}

// stampLost adds to req.Deads the servers the transport or the
// membership layer already reports gone, and reports whether it added
// any. The master does this before relaying a request down a
// synthesized tree: a tree must not route a subtree through a corpse,
// and stamping the frame keeps every node's locally-derived tree
// identical. A star tolerates a dead destination (nobody forwards
// through it), so flat schedules leave the request alone and find the
// dead the way the paper's protocol does.
func (s *Server) stampLost(req *opRequest) bool {
	if !s.cfg.treeEnabled() {
		return false
	}
	var lost []int
	for i := 0; i < s.cfg.NumServers; i++ {
		if i != s.index && s.serverGone(i) {
			lost = append(lost, i)
		}
	}
	merged := mergeDeads(req.Deads, lost)
	if len(merged) == len(req.Deads) {
		return false
	}
	req.Deads, s.curDeads = merged, merged
	return true
}

// broadcastVerdict sends a coordinator frame (commit decision, abort,
// or reassignment request) on the operation's server tag to this
// node's children in the control tree over the attempt's alive servers:
// the master originates it, every receiver relays it. The frame is
// encoded exactly once, by the master.
func (s *Server) broadcastVerdict(deads []int, raw []byte) {
	s.fanoutRaw(s.serverTreeChildren(deadSet(deads)), tagToServer(s.opSeq), raw)
}

// orderSubchunks reorders one server's pull schedule in place for the
// topology. Sub-chunks are bucketed by the rack of their first piece's
// client and drained in rotated round-robin rack order: the rotation
// starts at this server's own rack (rack affinity — those pulls never
// touch a spine link) offset by the server index, so the servers of a
// deployment start their cross-rack rounds on different racks instead
// of converging on one uplink. Within each sub-chunk, cross-rack
// pieces are requested before in-rack ones (deepest-link-first: the
// long-path transfers start earliest and overlap the short ones).
//
// Only the order changes — retirement follows the reordered plan and
// every job carries its explicit FileOffset, so the bytes written are
// identical to the flat schedule's.
func orderSubchunks(subs []subchunkJob, topo *mpi.Topology, selfRank, srvIndex, worldSize int, rankOf func(int) int) {
	racks := topo.Racks(worldSize)
	if racks <= 1 {
		return
	}
	for i := range subs {
		orderPieces(subs[i].Pieces, topo, selfRank, rankOf)
	}
	if len(subs) < 2 {
		return
	}
	buckets := make([][]subchunkJob, racks)
	for _, sj := range subs {
		rk := 0
		if len(sj.Pieces) > 0 {
			rk = topo.RackOf(rankOf(sj.Pieces[0].Client))
		}
		buckets[rk] = append(buckets[rk], sj)
	}
	start := (topo.RackOf(selfRank) + srvIndex) % racks
	out := subs[:0]
	for round := 0; len(out) < len(subs); round++ {
		for k := 0; k < racks; k++ {
			b := buckets[(start+k)%racks]
			if round < len(b) {
				out = append(out, b[round])
			}
		}
	}
}

// orderPieces sorts a sub-chunk's pieces deepest-link-first: cross-rack
// clients before in-rack ones, stably by client index within each
// class.
func orderPieces(pieces []piece, topo *mpi.Topology, selfRank int, rankOf func(int) int) {
	if len(pieces) < 2 {
		return
	}
	sort.SliceStable(pieces, func(i, j int) bool {
		ci := topo.CrossRack(rankOf(pieces[i].Client), selfRank)
		cj := topo.CrossRack(rankOf(pieces[j].Client), selfRank)
		return ci && !cj
	})
}

// orderPlan applies orderSubchunks for this server when topology
// schedules are on; pass-through otherwise. The subs slice must be
// freshly built (the reorder is in place).
func (s *Server) orderPlan(subs []subchunkJob) []subchunkJob {
	if s.cfg.treeEnabled() {
		orderSubchunks(subs, s.cfg.Topology, s.comm.Rank(), s.index, s.cfg.WorldSize(), s.groupRank)
	}
	return subs
}
