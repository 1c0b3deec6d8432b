// Package panda is a Go reproduction of Panda 2.0, the array I/O
// library with server-directed collective I/O described in
//
//	K. E. Seamons, Y. Chen, P. Jones, J. Jozwiak, M. Winslett.
//	"Server-Directed Collective I/O in Panda". Supercomputing '95.
//
// Panda performs input and output of multidimensional arrays for
// SPMD-style applications. Arrays live distributed across compute
// nodes under HPF-style BLOCK / * schemas; on disk they are chunked
// under a second (possibly different) schema across the I/O nodes.
// Collective operations — Write, Read, Timestep, Checkpoint, Restart —
// are issued at the level of whole arrays or array groups; the I/O
// nodes then direct the data flow so every file is read and written
// strictly sequentially (server-directed I/O).
//
// The public API mirrors the paper's Figure 2:
//
//	memory := panda.NewLayout("memory layout", []int{2, 2, 2})
//	disk := panda.NewLayout("disk layout", []int{4})
//	temperature, err := panda.NewArray("temperature",
//	    []int{512, 512, 512}, 4,
//	    memory, []panda.Distribution{panda.BLOCK, panda.BLOCK, panda.BLOCK},
//	    disk, []panda.Distribution{panda.BLOCK, panda.NONE, panda.NONE})
//	sim := panda.NewGroup("Sim2")
//	sim.Include(temperature)
//
//	cluster, err := panda.NewCluster(panda.Config{ComputeNodes: 8, IONodes: 4, Dir: "out"})
//	err = cluster.Run(func(n *panda.Node) error {
//	    buf := make([]byte, n.ChunkBytes(temperature))
//	    n.Bind(temperature, buf)
//	    for i := 0; i < 100; i++ {
//	        computeNextTimestep(n, buf)
//	        if err := n.Timestep(sim); err != nil {
//	            return err
//	        }
//	        if i == 50 {
//	            if err := n.Checkpoint(sim); err != nil {
//	                return err
//	            }
//	        }
//	    }
//	    return nil
//	})
//
// The compute and I/O nodes of the original ran on an IBM SP2 under
// MPI; here they are goroutines in one process connected by an
// in-memory message-passing substrate, with the I/O nodes backed by
// real files (Config.Dir) or memory. The performance experiments of
// the paper run on a simulated SP2 instead; see internal/harness and
// cmd/pandabench.
package panda

import (
	"fmt"

	"panda/internal/array"
	"panda/internal/core"
)

// Distribution is an HPF-style distribution directive for one array
// dimension, as in the paper's Figure 2.
type Distribution int

const (
	// NONE (HPF "*") leaves the dimension undistributed.
	NONE Distribution = iota
	// BLOCK divides the dimension into contiguous blocks.
	BLOCK
)

// Layout is a logical mesh of nodes — the paper's ArrayLayout. The
// same Layout can describe the compute-node mesh of a memory schema or
// the I/O-node mesh of a disk schema.
type Layout struct {
	name string
	dims []int
}

// NewLayout creates a layout with the given mesh dimensions, e.g.
// {2,2,2} for eight nodes in a cube. The name is for diagnostics.
func NewLayout(name string, dims []int) *Layout {
	return &Layout{name: name, dims: append([]int(nil), dims...)}
}

// Name returns the layout's diagnostic name.
func (l *Layout) Name() string { return l.name }

// Size returns the number of mesh positions.
func (l *Layout) Size() int {
	n := 1
	for _, d := range l.dims {
		n *= d
	}
	return n
}

// Array declares one distributed array: its name, global size, element
// size in bytes, and its memory and disk schemas.
type Array struct {
	name string
	spec core.ArraySpec
}

// NewArray validates and creates an array declaration. size is the
// global extent per dimension; memDist and diskDist give one directive
// per dimension, whose BLOCK entries consume the respective layout's
// mesh dimensions in order.
func NewArray(name string, size []int, elemSize int,
	memory *Layout, memDist []Distribution,
	disk *Layout, diskDist []Distribution) (*Array, error) {

	mem, err := buildSchema(size, memDist, memory)
	if err != nil {
		return nil, fmt.Errorf("panda: array %s memory schema: %w", name, err)
	}
	dsk, err := buildSchema(size, diskDist, disk)
	if err != nil {
		return nil, fmt.Errorf("panda: array %s disk schema: %w", name, err)
	}
	a := &Array{
		name: name,
		spec: core.ArraySpec{Name: name, ElemSize: elemSize, Mem: mem, Disk: dsk},
	}
	return a, nil
}

func buildSchema(size []int, dist []Distribution, layout *Layout) (array.Schema, error) {
	if layout == nil {
		return array.Schema{}, fmt.Errorf("nil layout")
	}
	if len(dist) != len(size) {
		return array.Schema{}, fmt.Errorf("%d directives for rank %d", len(dist), len(size))
	}
	ad := make([]array.Dist, len(dist))
	blocks := 0
	for i, d := range dist {
		switch d {
		case BLOCK:
			ad[i] = array.Block
			blocks++
		case NONE:
			ad[i] = array.Star
		default:
			return array.Schema{}, fmt.Errorf("unknown distribution %d", int(d))
		}
	}
	if blocks != len(layout.dims) {
		return array.Schema{}, fmt.Errorf("%d BLOCK dimensions but layout %q has rank %d",
			blocks, layout.name, len(layout.dims))
	}
	return array.NewSchema(size, ad, layout.dims)
}

// Name returns the array's name, which prefixes its file names.
func (a *Array) Name() string { return a.name }

// Size returns the global array extents.
func (a *Array) Size() []int { return append([]int(nil), a.spec.Mem.Shape...) }

// ElemSize returns the element size in bytes.
func (a *Array) ElemSize() int { return a.spec.ElemSize }

// TotalBytes returns the array's total byte size.
func (a *Array) TotalBytes() int64 { return a.spec.TotalBytes() }

// Group is a named collection of arrays handled by one collective call
// — the paper's ArrayGroup. Timestep and checkpoint operations act on
// the whole group.
type Group struct {
	name   string
	arrays []*Array
}

// NewGroup creates an empty group.
func NewGroup(name string) *Group { return &Group{name: name} }

// Include adds an array to the group (the paper's include method).
// Arrays are written in inclusion order.
func (g *Group) Include(a *Array) { g.arrays = append(g.arrays, a) }

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// Arrays returns the group's members in inclusion order.
func (g *Group) Arrays() []*Array { return append([]*Array(nil), g.arrays...) }

func (g *Group) specs() []core.ArraySpec {
	specs := make([]core.ArraySpec, len(g.arrays))
	for i, a := range g.arrays {
		specs[i] = a.spec
	}
	return specs
}
