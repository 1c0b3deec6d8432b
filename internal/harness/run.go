package harness

import (
	"fmt"

	"panda/internal/baseline"
	"panda/internal/clock"
	"panda/internal/core"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// Strategy selects who directs a cell's I/O (paper §4): Panda's
// servers, or one of the baselines the paper argues against.
type Strategy int

const (
	// ServerDirected is Panda.
	ServerDirected Strategy = iota
	// TwoPhase permutes in memory first, then writes large runs.
	TwoPhase
	// ClientDirected is independent client-initiated strided I/O.
	ClientDirected
)

// Strategies lists every strategy in the order of the §4 comparison.
func Strategies() []Strategy { return []Strategy{ServerDirected, TwoPhase, ClientDirected} }

func (s Strategy) String() string {
	return [...]string{"server-directed", "two-phase", "client-directed"}[s]
}

// Cell is one virtual-time run of one deployment shape: a figure's
// nodes and workload at one array size and I/O node count, under one
// strategy. Every figure cell, probe, ablation and baseline comparison
// is a Cell.
type Cell struct {
	Figure    Figure
	SizeBytes int64 // all arrays together
	IONodes   int
	Strategy  Strategy
	// Steps repeats the operation under the step suffixes ".t0", ".t1",
	// … through one deployment, a Timestep loop; 0 or 1 runs it once,
	// unsuffixed.
	Steps int
	// ChunksPerION stripes a traditional-order disk schema k chunks per
	// I/O node, the granularity ablation's array "g"; 0 keeps one chunk
	// per I/O node.
	ChunksPerION int
}

// suffixes names the cell's steps.
func (c Cell) suffixes() []string {
	if c.Steps <= 1 {
		return []string{""}
	}
	out := make([]string, c.Steps)
	for s := range out {
		out[s] = fmt.Sprintf(".t%d", s)
	}
	return out
}

// configFor assembles the deployment configuration of one cell.
func configFor(c Cell, opt Options) core.Config {
	return core.Config{
		NumClients:      c.Figure.ComputeNodes,
		NumServers:      c.IONodes,
		SubchunkBytes:   opt.SubchunkBytes,
		Pipeline:        opt.Pipeline,
		ReadAhead:       opt.ReadAhead,
		StartupOverhead: startupOverhead,
		CopyRate:        copyRate,
		Trace:           opt.Trace,
		Metrics:         opt.Metrics,
		Topology:        opt.Topology,
		FlatSchedules:   opt.FlatSchedules,
		// The paper's machines had no commit machinery; the virtual-time
		// goldens are calibrated to the plain write path.
		PlainWrites: true,
	}
}

// disksFor builds a cell's disks: server i's discarding store, behind
// the Table 1 AIX cost model unless the figure's disk is infinitely
// fast. The stores are returned so a read can find its files on them.
func disksFor(c Cell) ([]*storage.MemDisk, core.DiskFactory) {
	stores := make([]*storage.MemDisk, c.IONodes)
	for i := range stores {
		stores[i] = storage.NewNullDisk()
	}
	return stores, func(i int, clk clock.Clock) storage.Disk {
		if c.Figure.Disk == FastDisk {
			return stores[i]
		}
		return storage.NewSimDisk(stores[i], storage.SP2AIX(), clk)
	}
}

// populateFiles fabricates the on-disk files a read experiment expects,
// directly on the servers' backing stores (the paper writes the data in
// a prior run; only file sizes matter to the simulation since backing
// stores discard contents).
func populateFiles(cfg core.Config, specs []core.ArraySpec, suffixes []string, stores []*storage.MemDisk) error {
	for _, spec := range specs {
		size := make([]int64, cfg.NumServers)
		for _, p := range core.PlaceChunks(spec, cfg.NumServers, nil) {
			size[p.Server] = p.Offset + p.Bytes
		}
		for _, sfx := range suffixes {
			for s, n := range size {
				if n == 0 {
					continue
				}
				f, err := stores[s].Create(spec.FileName(sfx, s))
				if err != nil {
					return err
				}
				if _, err := f.WriteAt([]byte{0}, n-1); err != nil {
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// collective is what a cell's application needs of a compute node:
// core.Client and baseline.Client both provide it.
type collective interface {
	Rank() int
	WriteArrays(suffix string, specs []core.ArraySpec, bufs [][]byte) error
	ReadArrays(suffix string, specs []core.ArraySpec, bufs [][]byte) error
}

// app is the cell's application, the same under every strategy: each
// client moves its share of every array, once per step. A baseline
// read writes first, as it has no out-of-band way to fabricate its
// files; its elapsed time is still the read's, but against a warm
// simulated cache, so compare baseline reads with each other only.
func (c Cell) app(specs []core.ArraySpec) func(cl collective) error {
	return func(cl collective) error {
		bufs := make([][]byte, len(specs))
		for i, spec := range specs {
			bufs[i] = make([]byte, spec.MemChunkBytes(cl.Rank()))
		}
		for _, sfx := range c.suffixes() {
			if c.Figure.Op == Write || c.Strategy != ServerDirected {
				if err := cl.WriteArrays(sfx, specs, bufs); err != nil {
					return err
				}
			}
			if c.Figure.Op == Read {
				if err := cl.ReadArrays(sfx, specs, bufs); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// RunCell executes one cell and reduces it into a Point.
//
// Methodology follows the paper: the elapsed time is the maximum time
// any compute node spends inside the collective call; reads start with
// a cold buffer cache (the paper flushes the file system cache by
// writing and deleting a large temporary file); writes are flushed
// with fsync (the cost model charges writes synchronously).
func RunCell(c Cell, opt Options) (Point, error) {
	if c.Strategy != ServerDirected && opt.Topology != nil {
		return Point{}, fmt.Errorf("harness: %v runs on the uniform SP2 net only, not a racked topology", c.Strategy)
	}
	cfg := configFor(c, opt)
	specs, err := specsFor(c)
	if err != nil {
		return Point{}, err
	}
	stores, mkDisk := disksFor(c)
	if c.Figure.Op == Read && c.Strategy == ServerDirected {
		if err := populateFiles(cfg, specs, c.suffixes(), stores); err != nil {
			return Point{}, err
		}
	}
	app := c.app(specs)

	p := Point{IONodes: c.IONodes, Strategy: c.Strategy}
	var disks []storage.DiskStats
	if c.Strategy == ServerDirected {
		res, err := core.RunSim(cfg, mpi.SP2Link(), mkDisk, func(cl *core.Client) error { return app(cl) })
		if err != nil {
			return Point{}, err
		}
		p.Elapsed, disks = res.MaxClientElapsed(), res.DiskStats
		for _, st := range res.ServerStats {
			p.Requests += st.MsgsSent
		}
		for _, st := range append(res.ClientStats, res.ServerStats...) {
			p.Messages += st.MsgsSent
			p.ReorgBytes += st.ReorgBytes
			p.ContigBytes += st.ContigBytes
			p.Timeouts += st.Timeouts
			p.Retries += st.Retries
			p.OverlapNanos += st.OverlapNanos
			p.StallNanos += st.StallNanos
			p.PlanHits += st.PlanHits
			p.PlanMisses += st.PlanMisses
		}
	} else {
		strat := baseline.ClientDirected
		if c.Strategy == TwoPhase {
			strat = baseline.TwoPhase
		}
		res, err := baseline.RunSim(strat, cfg, mpi.SP2Link(), mkDisk, func(cl *baseline.Client) error { return app(cl) })
		if err != nil {
			return Point{}, err
		}
		p.Elapsed, disks = res.MaxClientElapsed(), res.DiskStats
		p.Requests, p.ReorgBytes = res.Requests, res.ReorgBytes
	}
	for _, st := range disks {
		p.Seeks += st.Seeks
	}
	for _, spec := range specs {
		p.ArrayBytes += spec.TotalBytes()
	}
	if secs := p.Elapsed.Seconds(); secs > 0 {
		p.AggMBs = float64(p.ArrayBytes) / MBps / secs
		p.Norm = float64(p.ArrayBytes) / secs / float64(c.IONodes) / c.Figure.NormPeak()
	}
	return p, nil
}

// RunFigure measures every cell of a figure, sizes scaled down by
// 2^opt.Scale.
func RunFigure(f Figure, opt Options) ([]Point, error) {
	var points []Point
	for _, mb := range f.SizesMB {
		size := mb * MB >> opt.Scale
		for _, ion := range f.IONodes {
			p, err := RunCell(Cell{Figure: f, SizeBytes: size, IONodes: ion}, opt)
			if err != nil {
				return points, fmt.Errorf("%s size %d MB ion %d: %w", f.ID, mb, ion, err)
			}
			if opt.Verbose {
				fmt.Printf("%s: size=%4d MB ion=%d  %8.2f MB/s  norm=%.2f  (%v)\n",
					f.ID, p.ArrayBytes/MB, ion, p.AggMBs, p.Norm, p.Elapsed.Round(startupOverhead/13))
			}
			points = append(points, p)
		}
	}
	return points, nil
}
