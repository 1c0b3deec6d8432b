package harness

import (
	"fmt"
	"strings"
	"time"
)

// writeFigure is a one-array write on computeNodes clients, the
// workload of every experiment outside the paper's figures.
func writeFigure(computeNodes int, disk DiskMode, schema SchemaMode) Figure {
	return Figure{ComputeNodes: computeNodes, Mesh: Meshes()[computeNodes],
		Op: Write, Disk: disk, Schema: schema, Arrays: 1}
}

// RunComparison runs the same collective write through server-directed
// I/O (Panda), two-phase I/O, and client-directed independent I/O on
// the simulated SP2, supporting the paper's §4 argument: one cell per
// strategy, in that order. With the traditional-order (BLOCK,*,*) disk
// layout the write reorganizes a BLOCK³ memory layout — the case where
// request ordering matters most.
func RunComparison(sizeBytes int64, computeNodes, ion int, schema SchemaMode, opt Options) ([]Point, error) {
	var rows []Point
	for _, s := range Strategies() {
		p, err := RunCell(Cell{Figure: writeFigure(computeNodes, RealDisk, schema), SizeBytes: sizeBytes, IONodes: ion, Strategy: s}, opt)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", s, err)
		}
		rows = append(rows, p)
	}
	return rows, nil
}

// RenderComparison renders comparison rows as a table.
func RenderComparison(title string, rows []Point) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-26s %12s %10s %8s %10s %12s\n",
		"strategy", "elapsed", "MB/s", "seeks", "requests", "reorg bytes")
	for _, r := range rows {
		label := r.Strategy.String()
		if r.Strategy == ServerDirected {
			label += " (Panda)"
		}
		fmt.Fprintf(&b, "%-26s %12v %10.2f %8d %10d %12d\n",
			label, r.Elapsed.Round(time.Millisecond), r.AggMBs, r.Seeks, r.Requests, r.ReorgBytes)
	}
	return b.String()
}

// AblationPoint is one setting of a swept parameter.
type AblationPoint struct {
	Param   int64
	Elapsed time.Duration
	AggMBs  float64
}

// ablate measures cell once per swept value, set applying the value
// to the cell or its options.
func ablate[T int | int64](cell Cell, opt Options, sweep []T, set func(T, *Cell, *Options)) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, v := range sweep {
		c, o := cell, opt
		set(v, &c, &o)
		p, err := RunCell(c, o)
		if err != nil {
			return out, err
		}
		out = append(out, AblationPoint{Param: int64(v), Elapsed: p.Elapsed, AggMBs: p.AggMBs})
	}
	return out, nil
}

// RunSubchunkAblation sweeps the sub-chunk size limit on a natural
// chunking write (the paper fixed 1 MB after experimentation; this
// regenerates that experiment).
func RunSubchunkAblation(sizeBytes int64, computeNodes, ion int, sweep []int64, opt Options) ([]AblationPoint, error) {
	cell := Cell{Figure: writeFigure(computeNodes, RealDisk, Natural), SizeBytes: sizeBytes, IONodes: ion}
	return ablate(cell, opt, sweep, func(sc int64, _ *Cell, o *Options) { o.SubchunkBytes = sc })
}

// RunPipelineAblation sweeps the write pipeline depth on a fast-disk
// reorganizing write, where overlapping sub-chunk requests (the paper's
// proposed non-blocking communication) pays off.
func RunPipelineAblation(sizeBytes int64, computeNodes, ion int, sweep []int, opt Options) ([]AblationPoint, error) {
	cell := Cell{Figure: writeFigure(computeNodes, FastDisk, Traditional), SizeBytes: sizeBytes, IONodes: ion}
	return ablate(cell, opt, sweep, func(depth int, _ *Cell, o *Options) { o.Pipeline = depth })
}

// RunGranularityAblation sweeps the disk-chunk striping granularity:
// the disk schema's BLOCK,*,* mesh is set to k × (I/O nodes) so each
// server owns k round-robin chunks. As k grows the layout approaches
// block-level striping; the paper argues for coarse, chunk-level
// striping. A k that would split dimension 0 finer than its extent is
// skipped.
func RunGranularityAblation(sizeBytes int64, computeNodes, ion int, sweep []int, opt Options) ([]AblationPoint, error) {
	shape, err := shape3D(sizeBytes)
	if err != nil {
		return nil, err
	}
	var ks []int
	for _, k := range sweep {
		if k*ion <= shape[0] {
			ks = append(ks, k)
		}
	}
	cell := Cell{Figure: writeFigure(computeNodes, RealDisk, Traditional), SizeBytes: sizeBytes, IONodes: ion}
	return ablate(cell, opt, ks, func(k int, c *Cell, _ *Options) { c.ChunksPerION = k })
}

// RenderAblation renders a swept parameter table.
func RenderAblation(title, paramName string, pts []AblationPoint) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%16s %12s %10s\n", paramName, "elapsed", "MB/s")
	for _, p := range pts {
		fmt.Fprintf(&b, "%16d %12v %10.2f\n", p.Param, p.Elapsed.Round(time.Millisecond), p.AggMBs)
	}
	return b.String()
}
