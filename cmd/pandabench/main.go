// pandabench regenerates the paper's evaluation: Figures 3-9, the
// multi-array experiment, the Table 1 calibration, the baseline
// comparison behind §4's argument, and the design ablations listed in
// DESIGN.md.
//
//	go run ./cmd/pandabench             # everything, paper-sized (minutes)
//	go run ./cmd/pandabench -scale 4    # arrays 16x smaller (seconds)
//	go run ./cmd/pandabench -fig fig5   # one figure
//	go run ./cmd/pandabench -fig baseline
//	go run ./cmd/pandabench -fig ablations
//	go run ./cmd/pandabench -csv       # machine-readable output
//	go run ./cmd/pandabench -engine-json BENCH_engine.json -scale 3
//	                                    # staged-engine baseline snapshot
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"panda/internal/array"
	"panda/internal/harness"
	"panda/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "figure to run: fig3..fig9, multi, table1, baseline, ablations, or all")
	scale := flag.Uint("scale", 0, "divide array sizes by 2^scale (0 = paper-sized)")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	subchunk := flag.Int64("subchunk", 0, "sub-chunk size limit in bytes (0 = paper's 1 MB)")
	pipeline := flag.Int("pipeline", 0, "server write pipeline depth (0 = paper's blocking behaviour; 2+ adds write-behind)")
	readahead := flag.Int("readahead", 0, "server read prefetch depth (0 = paper's serial reads)")
	engineJSON := flag.String("engine-json", "", "write the baseline (engine grid, pack, plan cache, sched, topo) as JSON to this file and exit")
	engineCheck := flag.String("engine-check", "", "re-run the baseline at the committed file's scale and fail unless every virtual-time row (rows, plan_cache, sched, topo) is identical and the structural checks hold; the fresh run is written alongside as <file>.new")
	tracePath := flag.String("trace", "", "record every operation and write Chrome trace-event JSON here (load at ui.perfetto.dev); also prints a per-operation phase breakdown")
	verbose := flag.Bool("v", false, "print each measurement as it completes")
	flag.Parse()

	opt := harness.Options{
		Scale:         *scale,
		SubchunkBytes: *subchunk,
		Pipeline:      *pipeline,
		ReadAhead:     *readahead,
		Verbose:       *verbose,
	}
	var rec *obs.Recorder
	if *tracePath != "" {
		rec = obs.NewRecorder(0)
		opt.Trace = rec
	}
	if rec != nil {
		defer func() {
			if err := rec.SaveTrace(*tracePath, os.Stdout); err != nil {
				log.Fatalf("trace: %v", err)
			}
		}()
	}

	if *engineJSON != "" {
		runEngineBaseline(*engineJSON, opt)
		return
	}
	if *engineCheck != "" {
		runEngineCheck(*engineCheck, opt)
		return
	}

	switch *fig {
	case "all":
		runTable1()
		for _, f := range harness.Figures() {
			runFigure(f, opt, *csv)
		}
		runBaseline(opt)
		runAblations(opt)
		runSharing(opt)
		runSched(opt)
		runTopo(opt)
	case "table1":
		runTable1()
	case "baseline":
		runBaseline(opt)
	case "ablations":
		runAblations(opt)
	case "sharing":
		runSharing(opt)
	case "sched":
		runSched(opt)
	case "topo":
		runTopo(opt)
	default:
		f, err := harness.FigureByID(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			fmt.Fprintln(os.Stderr, "known: fig3 fig4 fig5 fig6 fig7 fig8 fig9 multi table1 baseline ablations sharing sched topo all")
			os.Exit(2)
		}
		runFigure(f, opt, *csv)
	}
}

func runTable1() {
	c, err := harness.Calibrate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(harness.RenderCalibration(c))
}

func runFigure(f harness.Figure, opt harness.Options, csv bool) {
	points, err := harness.RunFigure(f, opt)
	if err != nil {
		log.Fatalf("%s: %v", f.ID, err)
	}
	if csv {
		fmt.Print(harness.RenderCSV(f, points))
		return
	}
	fmt.Println(harness.RenderFigure(f, points))
	// The paper's experiments run on a perfect simulated network, so
	// any failure traffic means the measurement is suspect — say so.
	var timeouts, retries int64
	for _, p := range points {
		timeouts += p.Timeouts
		retries += p.Retries
	}
	if timeouts > 0 || retries > 0 {
		fmt.Printf("WARNING: %s saw failure traffic: %d timeouts, %d pull retries\n", f.ID, timeouts, retries)
	}
}

func runBaseline(opt harness.Options) {
	size := 128 * harness.MB >> opt.Scale
	rows, err := harness.RunComparison(size, 8, 4, harness.Traditional, opt)
	if err != nil {
		log.Fatal(err)
	}
	title := fmt.Sprintf("Baseline comparison — write %d MB, 8 compute nodes, 4 i/o nodes, traditional order",
		size/harness.MB)
	fmt.Println(harness.RenderComparison(title, rows))
}

func runAblations(opt harness.Options) {
	size := 64 * harness.MB >> opt.Scale

	sub, err := harness.RunSubchunkAblation(size, 8, 4,
		[]int64{64 << 10, 256 << 10, 1 << 20, 4 << 20}, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(harness.RenderAblation(
		fmt.Sprintf("Ablation: sub-chunk size — write %d MB, natural chunking, 8 CN / 4 ION", size/harness.MB),
		"sub-chunk bytes", sub))

	pipe, err := harness.RunPipelineAblation(size, 16, 4, []int{1, 2, 4, 8}, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(harness.RenderAblation(
		fmt.Sprintf("Ablation: write pipeline depth — %d MB, traditional order, fast disk, 16 CN / 4 ION", size/harness.MB),
		"pipeline depth", pipe))

	gran, err := harness.RunGranularityAblation(size, 8, 4, []int{1, 2, 4, 8, 16, 64}, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(harness.RenderAblation(
		fmt.Sprintf("Ablation: chunk striping granularity — write %d MB, 8 CN / 4 ION (k chunks per i/o node)", size/harness.MB),
		"k", gran))
}

// engineRow is one measurement of the staged-engine baseline.
type engineRow struct {
	Figure    string  `json:"figure"`
	Op        string  `json:"op"`
	SizeMB    int64   `json:"size_mb"`
	IONodes   int     `json:"io_nodes"`
	Pipeline  int     `json:"pipeline"`
	ReadAhead int     `json:"readahead"`
	ElapsedNs int64   `json:"elapsed_ns"`
	AggMBs    float64 `json:"agg_mbs"`
	Norm      float64 `json:"norm"`
	OverlapNs int64   `json:"overlap_ns"`
	StallNs   int64   `json:"stall_ns"`
	Seeks     int64   `json:"seeks"`
	Messages  int64   `json:"messages"`
}

// packRow is one host-measured pack-kernel throughput figure. Unlike
// the virtual-time rows it depends on the machine running the bench, so
// the regression check reports but never gates on it.
type packRow struct {
	Name  string  `json:"name"`
	Bytes int64   `json:"bytes"`
	MBs   float64 `json:"mbs"`
}

// planCacheRow is the deterministic plan-cache measurement: a
// multi-step Timestep write loop under virtual time.
type planCacheRow struct {
	Steps   int   `json:"steps"`
	IONodes int   `json:"io_nodes"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
}

// schedRow is one mixed-workload scheduler measurement: three tenants
// of weight 4:2:1 writing and reading back independent arrays through
// the concurrent operation scheduler, at one in-flight window. Virtual
// time makes the rows deterministic, so they gate like the engine grid.
type schedRow struct {
	Inflight   int     `json:"inflight"`
	Ops        int     `json:"ops"`
	SizeMB     int64   `json:"size_mb"`
	IONodes    int     `json:"io_nodes"`
	ElapsedNs  int64   `json:"elapsed_ns"`
	AggMBs     float64 `json:"agg_mbs"`
	P50Ns      int64   `json:"p50_ns"`
	P99Ns      int64   `json:"p99_ns"`
	DiskMerges int64   `json:"disk_merges"`
}

// topoRow is one cell of the topology experiment: the same racked
// network measured under the flat paper schedules and under the
// synthesized tree/rack-affinity schedules. Virtual time makes both
// arms deterministic, so the rows gate like the engine grid.
type topoRow struct {
	Preset  string  `json:"preset"`
	Nodes   int     `json:"nodes"`
	IONodes int     `json:"io_nodes"`
	FlatNs  int64   `json:"flat_ns"`
	TreeNs  int64   `json:"tree_ns"`
	Speedup float64 `json:"speedup"`
}

// engineDoc is the BENCH_engine.json layout.
type engineDoc struct {
	Description string       `json:"description"`
	Scale       uint         `json:"scale"`
	Rows        []engineRow  `json:"rows"`
	Pack        []packRow    `json:"pack,omitempty"`
	PlanCache   planCacheRow `json:"plan_cache,omitempty"`
	Sched       []schedRow   `json:"sched,omitempty"`
	Topo        []topoRow    `json:"topo,omitempty"`
}

// measureEngine runs the engine-baseline grid — the paper's Table 1
// real-disk configurations (Figure 3 reads, Figure 4 writes), serial
// engine vs staged — at opt.Scale.
func measureEngine(opt harness.Options) []engineRow {
	engines := []struct {
		name      string
		pipeline  int
		readahead int
	}{
		{"serial", 1, 0},
		{"staged", 4, 2},
	}
	var rows []engineRow
	for _, figID := range []string{"fig3", "fig4"} {
		f, err := harness.FigureByID(figID)
		if err != nil {
			log.Fatal(err)
		}
		sizeMB := int64(64)
		size := sizeMB * harness.MB >> opt.Scale
		for _, ion := range []int{2, 4, 8} {
			for _, eng := range engines {
				o := opt
				o.Pipeline, o.ReadAhead = eng.pipeline, eng.readahead
				p, err := harness.RunCell(harness.Cell{Figure: f, SizeBytes: size, IONodes: ion}, o)
				if err != nil {
					log.Fatalf("%s ion %d %s: %v", figID, ion, eng.name, err)
				}
				rows = append(rows, engineRow{
					Figure:    figID,
					Op:        f.Op.String(),
					SizeMB:    p.ArrayBytes / harness.MB,
					IONodes:   ion,
					Pipeline:  eng.pipeline,
					ReadAhead: eng.readahead,
					ElapsedNs: p.Elapsed.Nanoseconds(),
					AggMBs:    p.AggMBs,
					Norm:      p.Norm,
					OverlapNs: p.OverlapNanos,
					StallNs:   p.StallNanos,
					Seeks:     p.Seeks,
					Messages:  p.Messages,
				})
				if opt.Verbose {
					fmt.Printf("%s ion=%d %-6s  %8.2f MB/s  overlap=%v\n",
						figID, ion, eng.name, p.AggMBs, p.OverlapNanos)
				}
			}
		}
	}
	return rows
}

// measurePack times the coalescing copy kernel on this host over the
// BenchmarkCopyRegion shapes: strided 2-D, strided 3-D, and a fully
// contiguous section.
func measurePack() []packRow {
	type shape struct {
		name           string
		srcBox, dstBox []int
		lo, hi         []int
		elem           int
	}
	shapes := []shape{
		{"pack2d_strided", []int{2048, 64}, []int{2048, 8}, []int{0, 0}, []int{2048, 8}, 8},
		{"pack3d_strided", []int{32, 64, 64}, []int{32, 64, 8}, []int{0, 0, 0}, []int{32, 64, 8}, 8},
		{"pack2d_contig", []int{256, 1024}, []int{256, 1024}, []int{0, 0}, []int{256, 1024}, 8},
	}
	var rows []packRow
	for _, sh := range shapes {
		srcR, dstR := array.Box(sh.srcBox), array.Box(sh.dstBox)
		sect := array.Region{Lo: sh.lo, Hi: sh.hi}
		src := make([]byte, srcR.NumElems()*int64(sh.elem))
		dst := make([]byte, dstR.NumElems()*int64(sh.elem))
		n := sect.NumElems() * int64(sh.elem)
		// Warm up, then time enough iterations to smooth scheduler noise.
		array.CopyRegion(dst, dstR, src, srcR, sect, sh.elem)
		iters := int(256 << 20 / n)
		if iters < 16 {
			iters = 16
		}
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			array.CopyRegion(dst, dstR, src, srcR, sect, sh.elem)
		}
		secs := time.Since(t0).Seconds()
		rows = append(rows, packRow{
			Name:  sh.name,
			Bytes: n,
			MBs:   float64(n) * float64(iters) / (1 << 20) / secs,
		})
	}
	return rows
}

// measurePlanCache runs the deterministic plan-cache probe: a 4-step
// Timestep write of the fig4 configuration.
func measurePlanCache(opt harness.Options) planCacheRow {
	const steps, ion = 4, 4
	f, err := harness.FigureByID("fig4")
	if err != nil {
		log.Fatal(err)
	}
	size := int64(64) * harness.MB >> opt.Scale
	p, err := harness.RunCell(harness.Cell{Figure: f, SizeBytes: size, IONodes: ion, Steps: steps}, opt)
	if err != nil {
		log.Fatalf("plan-cache probe: %v", err)
	}
	return planCacheRow{Steps: steps, IONodes: ion, Hits: p.PlanHits, Misses: p.PlanMisses}
}

// schedBenchION and schedBenchInflight fix the scheduler bench shape;
// the array size scales with opt.Scale like every other row.
const (
	schedBenchION      = 4
	schedBenchInflight = 4
)

// measureSched runs the mixed-workload scheduler bench overlapped and
// serialized and returns both rows, overlapped first.
func measureSched(opt harness.Options) []schedRow {
	size := int64(16) * harness.MB >> opt.Scale
	r, err := harness.RunSchedBench(size, schedBenchION, schedBenchInflight, opt)
	if err != nil {
		log.Fatalf("sched bench: %v", err)
	}
	row := func(p harness.SchedPoint) schedRow {
		return schedRow{
			Inflight:   p.Inflight,
			Ops:        p.Ops,
			SizeMB:     size / harness.MB,
			IONodes:    schedBenchION,
			ElapsedNs:  p.Elapsed.Nanoseconds(),
			AggMBs:     p.AggMBs,
			P50Ns:      p.P50.Nanoseconds(),
			P99Ns:      p.P99.Nanoseconds(),
			DiskMerges: p.DiskMerges,
		}
	}
	rows := []schedRow{row(r.Overlapped), row(r.Serial)}
	if opt.Verbose {
		for _, sr := range rows {
			fmt.Printf("sched inflight=%d  %8.2f MB/s  p99=%v\n",
				sr.Inflight, sr.AggMBs, time.Duration(sr.P99Ns))
		}
	}
	return rows
}

// measureTopo runs the full topology experiment: every preset at every
// node count, flat and synthesized arms each.
func measureTopo(opt harness.Options) []topoRow {
	points, err := harness.RunTopoFigure(nil, opt)
	if err != nil {
		log.Fatalf("topo bench: %v", err)
	}
	rows := make([]topoRow, 0, len(points))
	for _, p := range points {
		rows = append(rows, topoRow{
			Preset:  p.Preset,
			Nodes:   p.Nodes,
			IONodes: p.IONodes,
			FlatNs:  p.Flat.Nanoseconds(),
			TreeNs:  p.Tree.Nanoseconds(),
			Speedup: p.Speedup,
		})
	}
	return rows
}

// checkTopoRows holds the topology rows to their structural claims:
// synthesized beats flat at every count >= 256 nodes, and each preset's
// advantage grows from its smallest to its largest machine. Returns the
// number of failures.
func checkTopoRows(fresh []topoRow) int {
	failures := 0
	first, last := map[string]topoRow{}, map[string]topoRow{}
	for _, r := range fresh {
		if r.Nodes >= 256 && r.TreeNs >= r.FlatNs {
			fmt.Printf("FAIL topo/%s/n%d synthesized %v not below flat %v\n",
				r.Preset, r.Nodes, time.Duration(r.TreeNs), time.Duration(r.FlatNs))
			failures++
		}
		if f, ok := first[r.Preset]; !ok || r.Nodes < f.Nodes {
			first[r.Preset] = r
		}
		if l, ok := last[r.Preset]; !ok || r.Nodes > l.Nodes {
			last[r.Preset] = r
		}
	}
	for preset, f := range first {
		if l := last[preset]; l.Nodes > f.Nodes && l.Speedup <= f.Speedup {
			fmt.Printf("FAIL topo/%s speedup %.2fx at %d nodes not above %.2fx at %d nodes\n",
				preset, l.Speedup, l.Nodes, f.Speedup, f.Nodes)
			failures++
		}
	}
	return failures
}

// runTopo prints the human-readable topology comparison.
func runTopo(opt harness.Options) {
	opt.Verbose = true
	points, err := harness.RunTopoFigure(nil, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology experiment: %d cells, %d i/o nodes, write %d MB, flat vs synthesized schedules\n",
		len(points), harness.TopoIONodes, harness.TopoSizeMB>>opt.Scale)
}

// checkSchedRows holds the scheduler rows to their structural claim:
// overlapped dispatch beats the serialized baseline. Returns the number
// of failures.
func checkSchedRows(fresh []schedRow) int {
	var over, serial schedRow
	for _, r := range fresh {
		switch r.Inflight {
		case schedBenchInflight:
			over = r
		case 1:
			serial = r
		}
	}
	if over.AggMBs <= serial.AggMBs {
		fmt.Printf("FAIL sched overlapped %.2f MB/s not above serialized %.2f MB/s\n",
			over.AggMBs, serial.AggMBs)
		return 1
	}
	return 0
}

// sameRows holds one virtual-time section to its committed rows
// exactly: the rows are deterministic, so any difference is a model or
// protocol change to explain, never noise. Returns the number of
// failures (0 or 1), printing the first differing row.
func sameRows[T comparable](section string, base, fresh []T) int {
	for i := 0; i < len(base) || i < len(fresh); i++ {
		if i >= len(base) || i >= len(fresh) || base[i] != fresh[i] {
			fmt.Printf("FAIL %s row %d differs (of %d committed, %d fresh)\n", section, i, len(base), len(fresh))
			if i < len(base) {
				fmt.Printf("     committed %+v\n", base[i])
			}
			if i < len(fresh) {
				fmt.Printf("     fresh     %+v\n", fresh[i])
			}
			return 1
		}
	}
	fmt.Printf("ok   %-10s %d rows identical\n", section, len(base))
	return 0
}

// runSched prints the human-readable scheduler comparison.
func runSched(opt harness.Options) {
	size := 16 * harness.MB >> opt.Scale
	r, err := harness.RunSchedBench(size, schedBenchION, schedBenchInflight, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(harness.RenderSchedBench(size, schedBenchION, r))
}

// writeEngineDoc marshals and writes one engine-baseline document.
func writeEngineDoc(path string, doc engineDoc) {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
}

// measureDoc runs every baseline measurement at opt.Scale.
func measureDoc(description string, opt harness.Options) engineDoc {
	return engineDoc{
		Description: description,
		Scale:       opt.Scale,
		Rows:        measureEngine(opt),
		Pack:        measurePack(),
		PlanCache:   measurePlanCache(opt),
		Sched:       measureSched(opt),
		Topo:        measureTopo(opt),
	}
}

// runEngineBaseline writes the baseline as JSON — what `make
// bench-baseline` tracks and `-engine-check` gates on.
func runEngineBaseline(path string, opt harness.Options) {
	doc := measureDoc("staged server engine baseline: Table 1 AIX disk + SP2 link, serial vs staged (pipeline=4, readahead=2)", opt)
	writeEngineDoc(path, doc)
	fmt.Printf("wrote %d measurements to %s\n", len(doc.Rows), path)
}

// runEngineCheck is the CI bench gate: re-run the baseline at the
// committed file's scale and fail unless every virtual-time section is
// identical to it and the structural claims still hold. The fresh run
// lands at <path>.new for artifact upload; pack rows are host-dependent
// and reported without gating.
func runEngineCheck(path string, opt harness.Options) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var base engineDoc
	if err := json.Unmarshal(data, &base); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	opt.Scale = base.Scale
	fresh := measureDoc(base.Description, opt)
	writeEngineDoc(path+".new", fresh)

	failures := sameRows("rows", base.Rows, fresh.Rows)
	failures += sameRows("plan_cache", []planCacheRow{base.PlanCache}, []planCacheRow{fresh.PlanCache})
	failures += sameRows("sched", base.Sched, fresh.Sched)
	failures += sameRows("topo", base.Topo, fresh.Topo)
	for _, p := range fresh.Pack {
		fmt.Printf("info %-22s %8.2f MB/s (host-dependent, not gated)\n", p.Name, p.MBs)
	}
	if fresh.PlanCache.Hits == 0 {
		fmt.Println("FAIL plan cache never hit on the multi-step probe")
		failures++
	}
	failures += checkSchedRows(fresh.Sched)
	failures += checkTopoRows(fresh.Topo)
	if failures > 0 {
		log.Fatalf("engine check: %d failure(s) against %s; if the change is intended, re-run `make bench-baseline` and explain the diff", failures, path)
	}
	fmt.Printf("engine check passed: every virtual-time row identical to %s\n", path)
}

func runSharing(opt harness.Options) {
	size := 64 * harness.MB >> opt.Scale
	r, err := harness.RunSharing(size, 8, 2, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(harness.RenderSharing(size, 8, 2, r))
}
