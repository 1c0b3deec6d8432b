package harness

import (
	"fmt"
	"time"

	"panda/internal/mpi"
)

// topo.go is the topology experiment: the same collective write, on the
// same racked network, under the flat paper schedules and under the
// synthesized tree/rack-affinity schedules (core/topoplan.go). The
// paper's SP2 had a single-stage switch, so its flat master fan-outs
// cost one LogP send overhead per destination and nobody noticed; on a
// 1,000-node two-level fabric the master's egress port becomes the
// whole machine's clock, and the synthesized schedules are the fix.
// The experiment quantifies that: completion time flat vs synthesized
// as the node count grows, on presets from an ideal fat-tree to an
// oversubscribed rack fabric.

// TopoIONodes is the server count of every topology cell: the paper's
// largest I/O-node count, doubled, so pull traffic stays realistic
// while the X axis scales compute nodes 64 -> 1,024.
const TopoIONodes = 16

// TopoSizeMB is the unscaled array size of every topology cell. Fast
// disks and a fixed size keep the cells network-dominated, so the
// schedule's contribution is what the figure shows.
const TopoSizeMB = int64(32)

// TopoNodeCounts is the X axis: compute nodes per cell.
func TopoNodeCounts() []int { return []int{64, 128, 256, 512, 1024} }

// TopoPresets lists the topology presets of the experiment, parseable
// by mpi.ParseTopology: an ideal two-level fat-tree and a 4:1
// oversubscribed rack fabric, both with 16-port racks.
func TopoPresets() []string { return []string{"fat-tree:16", "oversub:16:4"} }

// TopoPoint is one cell of the topology experiment: one node count on
// one preset, measured under both schedules.
type TopoPoint struct {
	Nodes   int // compute nodes (servers add TopoIONodes more ranks)
	IONodes int
	Preset  string
	Flat    time.Duration // flat schedules on the racked network
	Tree    time.Duration // synthesized schedules on the same network
	// Speedup is Flat/Tree; >1 means the synthesized schedule won.
	Speedup float64
}

// RunTopoCell measures one topology cell under one schedule family.
func RunTopoCell(nodes int, topo *mpi.Topology, flat bool, opt Options) (Point, error) {
	opt.Topology = topo
	opt.FlatSchedules = flat
	return RunCell(Cell{Figure: writeFigure(nodes, FastDisk, Natural), SizeBytes: TopoSizeMB * MB >> opt.Scale, IONodes: TopoIONodes}, opt)
}

// RunTopoPoint measures both arms of one cell.
func RunTopoPoint(nodes int, preset string, opt Options) (TopoPoint, error) {
	topo, err := mpi.ParseTopology(preset)
	if err != nil {
		return TopoPoint{}, err
	}
	if topo == nil {
		return TopoPoint{}, fmt.Errorf("harness: preset %q is flat; the experiment needs racks", preset)
	}
	flat, err := RunTopoCell(nodes, topo, true, opt)
	if err != nil {
		return TopoPoint{}, fmt.Errorf("flat arm: %w", err)
	}
	tree, err := RunTopoCell(nodes, topo, false, opt)
	if err != nil {
		return TopoPoint{}, fmt.Errorf("synthesized arm: %w", err)
	}
	p := TopoPoint{
		Nodes:   nodes,
		IONodes: TopoIONodes,
		Preset:  preset,
		Flat:    flat.Elapsed,
		Tree:    tree.Elapsed,
	}
	if tree.Elapsed > 0 {
		p.Speedup = float64(flat.Elapsed) / float64(tree.Elapsed)
	}
	return p, nil
}

// RunTopoFigure measures every preset at every node count in counts
// (nil = TopoNodeCounts), flat and synthesized arms each.
func RunTopoFigure(counts []int, opt Options) ([]TopoPoint, error) {
	if counts == nil {
		counts = TopoNodeCounts()
	}
	var points []TopoPoint
	for _, preset := range TopoPresets() {
		for _, n := range counts {
			p, err := RunTopoPoint(n, preset, opt)
			if err != nil {
				return points, fmt.Errorf("%s at %d nodes: %w", preset, n, err)
			}
			if opt.Verbose {
				fmt.Printf("topo %-13s n=%4d  flat=%-12v tree=%-12v speedup=%.2fx\n",
					p.Preset, p.Nodes, p.Flat, p.Tree, p.Speedup)
			}
			points = append(points, p)
		}
	}
	return points, nil
}
