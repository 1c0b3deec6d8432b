package harness

import (
	"fmt"

	"panda/internal/clock"
	"panda/internal/core"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// configFor assembles the deployment configuration of one cell.
func configFor(f Figure, ion int, opt Options) core.Config {
	return core.Config{
		NumClients:      f.ComputeNodes,
		NumServers:      ion,
		SubchunkBytes:   opt.SubchunkBytes,
		Pipeline:        opt.Pipeline,
		ReadAhead:       opt.ReadAhead,
		StartupOverhead: StartupOverhead,
		CopyRate:        CopyRate,
		Trace:           opt.Trace,
		Metrics:         opt.Metrics,
		Topology:        opt.Topology,
		FlatSchedules:   opt.FlatSchedules,
		// The paper's machines had no commit machinery; the virtual-time
		// goldens are calibrated to the plain write path.
		PlainWrites: true,
	}
}

// populateFiles fabricates the on-disk files a read experiment expects,
// directly on the servers' backing stores (the paper writes the data in
// a prior run; only file sizes matter to the simulation since backing
// stores discard contents).
func populateFiles(cfg core.Config, specs []core.ArraySpec, inners []*storage.MemDisk) error {
	for _, spec := range specs {
		size := make([]int64, cfg.NumServers)
		for _, p := range core.PlaceChunks(spec, cfg.NumServers, nil) {
			size[p.Server] = p.Offset + p.Bytes
		}
		for s, n := range size {
			if n == 0 {
				continue
			}
			f, err := inners[s].Create(spec.FileName("", s))
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
	return nil
}

// RunCell executes one (size, I/O nodes) measurement of a figure.
//
// Methodology follows the paper: the elapsed time is the maximum time
// any compute node spends inside the collective call; reads start with
// a cold buffer cache (the paper flushes the file system cache by
// writing and deleting a large temporary file); writes are flushed
// with fsync (the cost model charges writes synchronously).
func RunCell(f Figure, sizeBytes int64, ion int, opt Options) (Point, error) {
	cfg := configFor(f, ion, opt)
	specs, err := specsFor(f, sizeBytes, ion)
	if err != nil {
		return Point{}, err
	}

	inners := make([]*storage.MemDisk, ion)
	for i := range inners {
		inners[i] = storage.NewNullDisk()
	}
	if f.Op == Read {
		if err := populateFiles(cfg, specs, inners); err != nil {
			return Point{}, err
		}
	}
	mkDisk := func(i int, clk clock.Clock) storage.Disk {
		if f.Disk == FastDisk {
			return inners[i]
		}
		return storage.NewSimDisk(inners[i], storage.SP2AIX(), clk)
	}

	app := func(cl *core.Client) error {
		bufs := make([][]byte, len(specs))
		for i, spec := range specs {
			bufs[i] = make([]byte, spec.MemChunkBytes(cl.Rank()))
		}
		if f.Op == Write {
			return cl.WriteArrays("", specs, bufs)
		}
		return cl.ReadArrays("", specs, bufs)
	}

	res, err := core.RunSim(cfg, mpi.SP2Link(), mkDisk, app)
	if err != nil {
		return Point{}, err
	}

	var total int64
	for _, spec := range specs {
		total += spec.TotalBytes()
	}
	elapsed := res.MaxClientElapsed()
	p := Point{
		ArrayBytes: total,
		IONodes:    ion,
		Elapsed:    elapsed,
	}
	secs := elapsed.Seconds()
	if secs > 0 {
		p.AggMBs = float64(total) / MBps / secs
		p.Norm = float64(total) / secs / float64(ion) / f.NormPeak()
	}
	for _, st := range res.ClientStats {
		p.Messages += st.MsgsSent
		p.ReorgBytes += st.ReorgBytes
		p.ContigBytes += st.ContigBytes
		p.Timeouts += st.Timeouts
		p.Retries += st.Retries
	}
	for _, st := range res.ServerStats {
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
	for _, st := range res.DiskStats {
		p.Seeks += st.Seeks
	}
	return p, nil
}

// RunPlanCacheProbe runs a Timestep-style loop — the same arrays
// written `steps` times under step suffixes — through one simulated
// deployment and returns the summed server plan-cache counters. Every
// step after the first replans for free: the deterministic plan-cache
// row of the engine baseline. f must be a write figure.
func RunPlanCacheProbe(f Figure, sizeBytes int64, ion, steps int, opt Options) (hits, misses int64, err error) {
	if f.Op != Write {
		return 0, 0, fmt.Errorf("harness: plan-cache probe needs a write figure, got %s", f.ID)
	}
	cfg := configFor(f, ion, opt)
	specs, err := specsFor(f, sizeBytes, ion)
	if err != nil {
		return 0, 0, err
	}
	inners := make([]*storage.MemDisk, ion)
	for i := range inners {
		inners[i] = storage.NewNullDisk()
	}
	mkDisk := func(i int, clk clock.Clock) storage.Disk {
		if f.Disk == FastDisk {
			return inners[i]
		}
		return storage.NewSimDisk(inners[i], storage.SP2AIX(), clk)
	}
	app := func(cl *core.Client) error {
		bufs := make([][]byte, len(specs))
		for i, spec := range specs {
			bufs[i] = make([]byte, spec.MemChunkBytes(cl.Rank()))
		}
		for s := 0; s < steps; s++ {
			if werr := cl.WriteArrays(fmt.Sprintf(".t%d", s), specs, bufs); werr != nil {
				return werr
			}
		}
		return nil
	}
	res, err := core.RunSim(cfg, mpi.SP2Link(), mkDisk, app)
	if err != nil {
		return 0, 0, err
	}
	for _, st := range res.ServerStats {
		hits += st.PlanHits
		misses += st.PlanMisses
	}
	return hits, misses, nil
}

// RunFigure measures every cell of a figure, sizes scaled down by
// 2^opt.Scale.
func RunFigure(f Figure, opt Options) ([]Point, error) {
	printf := opt.Printf
	if printf == nil {
		printf = func(format string, a ...interface{}) { fmt.Printf(format, a...) }
	}
	var points []Point
	for _, mb := range f.SizesMB {
		size := mb * MB >> opt.Scale
		for _, ion := range f.IONodes {
			p, err := RunCell(f, size, ion, opt)
			if err != nil {
				return points, fmt.Errorf("%s size %d MB ion %d: %w", f.ID, mb, ion, err)
			}
			if opt.Verbose {
				printf("%s: size=%4d MB ion=%d  %8.2f MB/s  norm=%.2f  (%v)\n",
					f.ID, p.ArrayBytes/MB, ion, p.AggMBs, p.Norm, p.Elapsed.Round(StartupOverhead/13))
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// sp2AIX is a shorthand for the Table 1 disk model.
func sp2AIX() storage.AIXModel { return storage.SP2AIX() }
