package panda

// Benchmarks regenerating the paper's evaluation, one per table/figure.
//
// Each figure benchmark runs the full Panda protocol on the simulated
// SP2 for a representative cell of that figure and reports the paper's
// metrics: aggregate MB/s and normalized (per-I/O-node over peak)
// throughput. Arrays are scaled down 16x by default so `go test
// -bench=.` completes quickly; run `go run ./cmd/pandabench` for the
// paper-sized sweeps and full tables.
//
// The micro-benchmarks at the bottom cover the hot primitives
// (hyperslab copy, sub-chunk splitting, protocol encode/decode).

import (
	"fmt"
	"testing"

	"panda/internal/array"
	"panda/internal/harness"
)

// benchScale shrinks arrays 2^4 = 16x relative to the paper.
const benchScale = 4

// benchFigureCell runs one cell of a figure per iteration and reports
// the paper's metrics.
func benchFigureCell(b *testing.B, id string, sizeMB int64, ion int) {
	b.Helper()
	f, err := harness.FigureByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opt := harness.Options{Scale: benchScale}
	var last harness.Point
	for i := 0; i < b.N; i++ {
		p, err := harness.RunCell(harness.Cell{Figure: f, SizeBytes: sizeMB * harness.MB >> benchScale, IONodes: ion}, opt)
		if err != nil {
			b.Fatal(err)
		}
		last = p
	}
	b.ReportMetric(last.AggMBs, "agg-MB/s")
	b.ReportMetric(last.Norm, "normalized")
	b.ReportMetric(float64(last.Messages), "messages")
}

// benchFigure sweeps the figure's I/O node axis at one array size.
func benchFigure(b *testing.B, id string, sizeMB int64) {
	f, err := harness.FigureByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for _, ion := range f.IONodes {
		ion := ion
		b.Run(fmt.Sprintf("size=%dMB/ion=%d", sizeMB, ion), func(b *testing.B) {
			benchFigureCell(b, id, sizeMB, ion)
		})
	}
}

// BenchmarkTable1Calibration regenerates the measured rows of Table 1.
func BenchmarkTable1Calibration(b *testing.B) {
	var c harness.Calibration
	var err error
	for i := 0; i < b.N; i++ {
		c, err = harness.Calibrate()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(c.ReadPeakMBs, "fs-read-MB/s")
	b.ReportMetric(c.WritePeakMBs, "fs-write-MB/s")
	b.ReportMetric(float64(c.Latency.Microseconds()), "net-latency-us")
	b.ReportMetric(c.BandwidthMBs, "net-MB/s")
}

// BenchmarkFig3NaturalRead — reading, natural chunking, 8 compute nodes.
func BenchmarkFig3NaturalRead(b *testing.B) { benchFigure(b, "fig3", 128) }

// BenchmarkFig4NaturalWrite — writing, natural chunking, 8 compute nodes.
func BenchmarkFig4NaturalWrite(b *testing.B) { benchFigure(b, "fig4", 128) }

// BenchmarkFig5FastDiskRead — reading, 32 compute nodes, infinitely
// fast disk (network-bound).
func BenchmarkFig5FastDiskRead(b *testing.B) { benchFigure(b, "fig5", 128) }

// BenchmarkFig6FastDiskWrite — writing, 32 compute nodes, infinitely
// fast disk.
func BenchmarkFig6FastDiskWrite(b *testing.B) { benchFigure(b, "fig6", 128) }

// BenchmarkFig7TradRead — reading, traditional order on disk, 32
// compute nodes (reorganization on the fly).
func BenchmarkFig7TradRead(b *testing.B) { benchFigure(b, "fig7", 128) }

// BenchmarkFig8TradWrite — writing, traditional order on disk, 32
// compute nodes.
func BenchmarkFig8TradWrite(b *testing.B) { benchFigure(b, "fig8", 128) }

// BenchmarkFig9TradFastWrite — writing, traditional order, 16 compute
// nodes, fast disk: exposes the reorganization cost (paper: 38-86% of
// MPI peak vs ~90% for natural chunking).
func BenchmarkFig9TradFastWrite(b *testing.B) { benchFigure(b, "fig9", 128) }

// BenchmarkMultiArrayTimestep — the paper's multiple-array experiment:
// three arrays per collective call reach single-array throughput when
// chunks stay large.
func BenchmarkMultiArrayTimestep(b *testing.B) { benchFigure(b, "multi", 96) }

// BenchmarkBaselineComparison — server-directed vs two-phase vs
// client-directed on a reorganizing write (§4's argument).
func BenchmarkBaselineComparison(b *testing.B) {
	var rows []harness.Point
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.RunComparison(16*harness.MB, 8, 2, harness.Traditional, harness.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].AggMBs, "panda-MB/s")
	b.ReportMetric(rows[1].AggMBs, "twophase-MB/s")
	b.ReportMetric(rows[2].AggMBs, "naive-MB/s")
	b.ReportMetric(rows[0].Elapsed.Seconds()/rows[2].Elapsed.Seconds(), "panda/naive-time")
}

// BenchmarkAblationSubchunk — the paper fixed the sub-chunk size at
// 1 MB "after experimentation"; this sweep regenerates that choice.
func BenchmarkAblationSubchunk(b *testing.B) {
	for _, sc := range []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		sc := sc
		b.Run(fmt.Sprintf("subchunk=%dKB", sc>>10), func(b *testing.B) {
			var pts []harness.AblationPoint
			var err error
			for i := 0; i < b.N; i++ {
				pts, err = harness.RunSubchunkAblation(16*harness.MB, 8, 4, []int64{sc}, harness.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pts[0].AggMBs, "agg-MB/s")
		})
	}
}

// BenchmarkAblationPipeline — the paper proposes non-blocking
// communication as future work; the pipeline depth implements it.
func BenchmarkAblationPipeline(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		depth := depth
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var pts []harness.AblationPoint
			var err error
			for i := 0; i < b.N; i++ {
				pts, err = harness.RunPipelineAblation(16*harness.MB, 16, 4, []int{depth}, harness.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pts[0].AggMBs, "agg-MB/s")
		})
	}
}

// BenchmarkAblationStriping — chunk-level round-robin striping
// granularity (k disk chunks per I/O node; the paper argues for coarse
// chunk-level striping over block-level).
func BenchmarkAblationStriping(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var pts []harness.AblationPoint
			var err error
			for i := 0; i < b.N; i++ {
				pts, err = harness.RunGranularityAblation(16*harness.MB, 8, 4, []int{k}, harness.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			if len(pts) > 0 {
				b.ReportMetric(pts[0].AggMBs, "agg-MB/s")
			}
		})
	}
}

// --- micro-benchmarks of the hot primitives -----------------------------

func BenchmarkCopyRegionContiguous(b *testing.B) {
	outer := array.Box([]int{64, 64, 64})
	sect := array.NewRegion([]int{16, 0, 0}, []int{48, 64, 64})
	src := make([]byte, outer.NumElems()*8)
	dst := make([]byte, outer.NumElems()*8)
	b.SetBytes(sect.NumElems() * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		array.CopyRegion(dst, outer, src, outer, sect, 8)
	}
}

func BenchmarkCopyRegionStrided(b *testing.B) {
	outer := array.Box([]int{64, 64, 64})
	sect := array.NewRegion([]int{8, 8, 8}, []int{56, 56, 56})
	src := make([]byte, outer.NumElems()*8)
	dst := make([]byte, outer.NumElems()*8)
	b.SetBytes(sect.NumElems() * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		array.CopyRegion(dst, outer, src, outer, sect, 8)
	}
}

func BenchmarkSplitContiguous(b *testing.B) {
	r := array.Box([]int{128, 128, 128})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := array.SplitContiguous(r, 4, 1<<20); len(got) == 0 {
			b.Fatal("no pieces")
		}
	}
}

// BenchmarkEndToEndRealMode measures the in-process real-time runtime
// (the functional path the examples use), wall-clock.
func BenchmarkEndToEndRealMode(b *testing.B) {
	memory := NewLayout("m", []int{2, 2, 2})
	a, err := NewArray("bench", []int{64, 64, 64}, 8,
		memory, []Distribution{BLOCK, BLOCK, BLOCK},
		memory, []Distribution{BLOCK, BLOCK, BLOCK})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(a.TotalBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster, err := NewCluster(Config{ComputeNodes: 8, IONodes: 4})
		if err != nil {
			b.Fatal(err)
		}
		if err := cluster.Run(func(n *Node) error {
			buf := make([]byte, n.ChunkBytes(a))
			if err := n.Bind(a, buf); err != nil {
				return err
			}
			if err := n.WriteArray(a); err != nil {
				return err
			}
			return n.ReadArray(a)
		}); err != nil {
			b.Fatal(err)
		}
	}
}
