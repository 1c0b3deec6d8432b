// Package harness defines and runs the paper's experiments: one Figure
// per plot in the evaluation section (Figures 3–9), the Table 1
// calibration, the multi-array experiment the paper describes in prose,
// and the baseline and ablation studies DESIGN.md calls for.
//
// Every experiment runs the real Panda protocol (internal/core) on the
// simulated SP2 (internal/mpi SimWorld + internal/storage SimDisk), and
// reports aggregate throughput plus the paper's normalized throughput:
// per-I/O-node throughput divided by the relevant peak (measured AIX
// file system rate for real-disk runs, MPI bandwidth for fast-disk
// runs).
package harness

import (
	"fmt"
	"time"

	"panda/internal/array"
	"panda/internal/core"
	"panda/internal/mpi"
	"panda/internal/obs"
	"panda/internal/storage"
)

// Op selects the measured operation.
type Op int

const (
	// Read measures collective array reads (cache flushed first).
	Read Op = iota
	// Write measures collective array writes.
	Write
)

func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// DiskMode selects the storage backend.
type DiskMode int

const (
	// RealDisk uses the Table 1 AIX cost model.
	RealDisk DiskMode = iota
	// FastDisk simulates an infinitely fast disk (paper Figures 5, 6,
	// 9: file system calls commented out).
	FastDisk
)

// SchemaMode selects the disk schema family.
type SchemaMode int

const (
	// Natural uses the memory schema on disk ("natural chunking").
	Natural SchemaMode = iota
	// Traditional stores the array in traditional order: BLOCK,*,*
	// across the I/O nodes.
	Traditional
)

// MB is 2^20 bytes, the paper's unit for array sizes.
const MB = int64(1) << 20

// MBps converts bytes/second to the MB/s used for throughput reporting
// (decimal, matching Table 1's 3.0 MB/s disk and 34 MB/s network).
const MBps = 1e6

// elemSize is the element size used in all experiments. The paper's
// 512 MB array of size 512x512x512 implies 4-byte elements.
const elemSize = 4

// Figure describes one experiment family: a plot from the paper.
type Figure struct {
	// ID names the experiment ("fig3" .. "fig9", "multi").
	ID string
	// Title is the paper's caption, abbreviated.
	Title string
	// ComputeNodes and Mesh give the client count and its logical
	// mesh (the paper's 2x2x2, 4x2x2, 6x2x2, 4x4x2).
	ComputeNodes int
	Mesh         []int
	// IONodes lists the I/O node counts on the X axis.
	IONodes []int
	// SizesMB lists the array sizes (series), in MB.
	SizesMB []int64
	// Op, Disk and Schema select the workload.
	Op     Op
	Disk   DiskMode
	Schema SchemaMode
	// Arrays is the number of arrays written per collective call
	// (1 except for the multi-array experiment).
	Arrays int
}

// NormPeak is the divisor for normalized throughput in bytes/second.
func (f Figure) NormPeak() float64 {
	if f.Disk == FastDisk {
		return mpi.SP2Link().Bandwidth
	}
	if f.Op == Read {
		return storage.AIXPeakRead
	}
	return storage.AIXPeakWrite
}

// Figures returns the paper's experiment suite, in paper order.
func Figures() []Figure {
	sizes := []int64{16, 32, 64, 128, 256, 512}
	return []Figure{
		{ID: "fig3", Title: "Read, natural chunking, 8 compute nodes",
			ComputeNodes: 8, Mesh: []int{2, 2, 2}, IONodes: []int{2, 4, 8},
			SizesMB: sizes, Op: Read, Disk: RealDisk, Schema: Natural, Arrays: 1},
		{ID: "fig4", Title: "Write, natural chunking, 8 compute nodes",
			ComputeNodes: 8, Mesh: []int{2, 2, 2}, IONodes: []int{2, 4, 8},
			SizesMB: sizes, Op: Write, Disk: RealDisk, Schema: Natural, Arrays: 1},
		{ID: "fig5", Title: "Read, natural chunking, 32 compute nodes, infinitely fast disk",
			ComputeNodes: 32, Mesh: []int{4, 4, 2}, IONodes: []int{2, 4, 8},
			SizesMB: sizes, Op: Read, Disk: FastDisk, Schema: Natural, Arrays: 1},
		{ID: "fig6", Title: "Write, natural chunking, 32 compute nodes, infinitely fast disk",
			ComputeNodes: 32, Mesh: []int{4, 4, 2}, IONodes: []int{2, 4, 8},
			SizesMB: sizes, Op: Write, Disk: FastDisk, Schema: Natural, Arrays: 1},
		{ID: "fig7", Title: "Read, traditional order on disk, 32 compute nodes",
			ComputeNodes: 32, Mesh: []int{4, 4, 2}, IONodes: []int{2, 4, 6, 8},
			SizesMB: sizes, Op: Read, Disk: RealDisk, Schema: Traditional, Arrays: 1},
		{ID: "fig8", Title: "Write, traditional order on disk, 32 compute nodes",
			ComputeNodes: 32, Mesh: []int{4, 4, 2}, IONodes: []int{2, 4, 6, 8},
			SizesMB: sizes, Op: Write, Disk: RealDisk, Schema: Traditional, Arrays: 1},
		{ID: "fig9", Title: "Write, traditional order, 16 compute nodes, infinitely fast disk",
			ComputeNodes: 16, Mesh: []int{4, 2, 2}, IONodes: []int{2, 4, 6, 8},
			SizesMB: sizes, Op: Write, Disk: FastDisk, Schema: Traditional, Arrays: 1},
		{ID: "multi", Title: "Write, 3 arrays per collective call (timestep), 8 compute nodes",
			ComputeNodes: 8, Mesh: []int{2, 2, 2}, IONodes: []int{2, 4, 8},
			SizesMB: []int64{48, 96, 192, 384}, Op: Write, Disk: RealDisk, Schema: Natural, Arrays: 3},
	}
}

// FigureByID finds a figure in the suite.
func FigureByID(id string) (Figure, error) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("harness: unknown figure %q", id)
}

// Options tune an experiment run.
type Options struct {
	// Scale divides the array sizes by 2^Scale while keeping the node
	// counts, to make quick runs cheap. 0 = paper-sized arrays.
	Scale uint
	// SubchunkBytes overrides the 1 MB sub-chunk limit (0 = paper
	// value).
	SubchunkBytes int64
	// Pipeline overrides the write pipeline depth (0 = 1, the paper's
	// blocking behaviour; 2+ writes behind through the storage stage).
	Pipeline int
	// ReadAhead sets the read prefetch depth (0 = the paper's serial
	// reads; 1+ reads ahead through the storage stage).
	ReadAhead int
	// Verbose makes Run print each point as it completes.
	Verbose bool
	// Trace, when non-nil, records a structured trace of every
	// operation in every cell (all cells share the recorder; each
	// operation carries its own sequence number).
	Trace *obs.Recorder
	// Metrics, when non-nil, aggregates counters and histograms across
	// every cell of the run.
	Metrics *obs.Registry
	// Topology, when non-nil, racks the simulated network with this
	// layout and (unless FlatSchedules) turns on the synthesized
	// communication schedules. Nil keeps the paper's uniform SP2 net.
	Topology *mpi.Topology
	// FlatSchedules keeps the flat paper schedules while still charging
	// the racked network: the control arm of the topology experiment.
	FlatSchedules bool
}

// startupOverhead is the paper's measured fixed Panda cost per
// collective operation (§3: "approximately .013 seconds").
const startupOverhead = 13 * time.Millisecond

// copyRate models node memory bandwidth for strided reorganization
// copies. 100 MB/s is a conservative figure for a 1995 POWER2 node
// doing small strided memcpy (Table 1 lists 342 GB/s aggregate peak
// memory bandwidth across 160 nodes, i.e. ~2 GB/s streaming per node;
// strided element copies achieve far less).
const copyRate = 100e6

// Point is one measurement: what one Cell did.
type Point struct {
	ArrayBytes int64
	IONodes    int
	Strategy   Strategy
	Elapsed    time.Duration
	// AggMBs is aggregate throughput in MB/s (2^20 bytes per second).
	AggMBs float64
	// Norm is per-I/O-node throughput over the relevant peak.
	Norm float64
	// ReorgBytes sums the strided-copy traffic across all nodes.
	ReorgBytes int64
	// Messages counts protocol messages cluster-wide.
	Messages int64
	// Requests counts the sub-chunk requests Panda's servers sent, or a
	// baseline's file requests.
	Requests int64
	// Seeks counts non-sequential disk requests across servers.
	Seeks int64
	// Timeouts and Retries sum the robustness counters across all
	// nodes. Both stay zero in the paper's experiments (simulations
	// run without OpTimeout); they are surfaced so fault-injection
	// runs can report what the protocol absorbed.
	Timeouts int64
	Retries  int64
	// OverlapNanos and StallNanos sum the storage-stage counters
	// (core.Stats) across servers. OverlapNanos is disk time hidden
	// behind the network: zero in the paper's serial configuration,
	// where the mover waits out every disk call. StallNanos is every
	// mover wait on the storage stage — with a window of zero, every
	// disk call's whole time — so it is never zero where a disk costs
	// time.
	OverlapNanos int64
	StallNanos   int64
	// ContigBytes sums the contiguous fast-path traffic across all
	// nodes (the complement of ReorgBytes).
	ContigBytes int64
	// PlanHits and PlanMisses sum the servers' plan-cache counters.
	// Single-operation cells miss once per array and never hit; a
	// multi-step cell (Cell.Steps) is where hits appear.
	PlanHits, PlanMisses int64
}

// shape3D factors totalBytes/elemSize into a 3-D power-of-two shape as
// close to a cube as possible (the paper uses 3-D arrays, 512 MB =
// 512x512x512 at 4 bytes). totalBytes/elemSize must be a power of two.
func shape3D(totalBytes int64) ([]int, error) {
	elems := totalBytes / elemSize
	if elems <= 0 || elems&(elems-1) != 0 {
		return nil, fmt.Errorf("harness: %d bytes is not a power-of-two element count", totalBytes)
	}
	exp := 0
	for v := elems; v > 1; v >>= 1 {
		exp++
	}
	shape := []int{1, 1, 1}
	for d := 0; exp > 0; exp-- {
		shape[d%3] <<= 1
		d++
	}
	// Largest dimension first, matching the paper's row-major cubes.
	if shape[0] < shape[1] {
		shape[0], shape[1] = shape[1], shape[0]
	}
	return shape, nil
}

// Meshes maps compute-node counts to logical meshes: the paper's four
// SP2 configurations plus the scaled-up counts of the topology
// experiment (powers of two through 1,024 nodes).
func Meshes() map[int][]int {
	return map[int][]int{
		8:    {2, 2, 2},
		16:   {4, 2, 2},
		24:   {6, 2, 2},
		32:   {4, 4, 2},
		64:   {4, 4, 4},
		128:  {8, 4, 4},
		256:  {8, 8, 4},
		512:  {8, 8, 8},
		1024: {16, 8, 8},
	}
}

// specsFor builds the array specs of one cell: Figure.Arrays arrays
// named a0, a1, … splitting the cell's size, or the granularity
// ablation's one array "g". Names travel in the op request, so they
// are part of every cell's virtual time.
func specsFor(c Cell) ([]core.ArraySpec, error) {
	f := c.Figure
	if len(f.Mesh) == 0 {
		return nil, fmt.Errorf("harness: no mesh for %d compute nodes", f.ComputeNodes)
	}
	n := max(f.Arrays, 1)
	shape, err := shape3D(c.SizeBytes / int64(n))
	if err != nil {
		return nil, err
	}
	mem, err := array.NewSchema(shape, []array.Dist{array.Block, array.Block, array.Block}, f.Mesh)
	if err != nil {
		return nil, err
	}
	disk := mem
	if f.Schema == Traditional {
		chunks := c.IONodes * max(c.ChunksPerION, 1)
		disk, err = array.NewSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{chunks})
		if err != nil {
			return nil, err
		}
	}
	specs := make([]core.ArraySpec, n)
	for i := range specs {
		name := fmt.Sprintf("a%d", i)
		if c.ChunksPerION > 0 {
			name = "g"
		}
		specs[i] = core.ArraySpec{Name: name, ElemSize: elemSize, Mem: mem, Disk: disk}
	}
	return specs, nil
}
