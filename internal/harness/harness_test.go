package harness

import (
	"strings"
	"testing"

	"panda/internal/mpi"
)

func TestShape3D(t *testing.T) {
	cases := []struct {
		bytes int64
		want  []int
	}{
		{16 * MB, []int{256, 128, 128}},
		{32 * MB, []int{256, 256, 128}},
		{64 * MB, []int{256, 256, 256}},
		{128 * MB, []int{512, 256, 256}},
		{512 * MB, []int{512, 512, 512}},
		{4 * elemSize, []int{2, 2, 1}},
	}
	for _, c := range cases {
		got, err := shape3D(c.bytes)
		if err != nil {
			t.Fatalf("%d bytes: %v", c.bytes, err)
		}
		elems := int64(1)
		for i, g := range got {
			if g != c.want[i] {
				t.Fatalf("%d bytes: shape %v, want %v", c.bytes, got, c.want)
			}
			elems *= int64(g)
		}
		if elems*elemSize != c.bytes {
			t.Fatalf("%d bytes: shape %v covers %d bytes", c.bytes, got, elems*elemSize)
		}
	}
	if _, err := shape3D(12345); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
}

func TestFiguresSuiteMatchesPaper(t *testing.T) {
	figs := Figures()
	ids := map[string]Figure{}
	for _, f := range figs {
		ids[f.ID] = f
	}
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "multi"} {
		if _, ok := ids[id]; !ok {
			t.Fatalf("missing figure %s", id)
		}
	}
	// Spot-check against the paper's captions.
	if f := ids["fig3"]; f.ComputeNodes != 8 || f.Op != Read || f.Disk != RealDisk || f.Schema != Natural {
		t.Fatalf("fig3 = %+v", f)
	}
	if f := ids["fig6"]; f.ComputeNodes != 32 || f.Op != Write || f.Disk != FastDisk {
		t.Fatalf("fig6 = %+v", f)
	}
	if f := ids["fig9"]; f.ComputeNodes != 16 || f.Schema != Traditional || f.Disk != FastDisk || len(f.IONodes) != 4 {
		t.Fatalf("fig9 = %+v", f)
	}
	if _, err := FigureByID("fig42"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestCalibrationMatchesTable1(t *testing.T) {
	c, err := Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	within := func(got, want, tol float64) bool {
		return got > want*(1-tol) && got < want*(1+tol)
	}
	if !within(c.ReadPeakMBs, 2.85, 0.02) {
		t.Errorf("read peak %.3f, want ~2.85", c.ReadPeakMBs)
	}
	if !within(c.WritePeakMBs, 2.23, 0.02) {
		t.Errorf("write peak %.3f, want ~2.23", c.WritePeakMBs)
	}
	if !within(float64(c.Latency.Microseconds()), 43, 0.05) {
		t.Errorf("latency %v, want ~43us", c.Latency)
	}
	if !within(c.BandwidthMBs, 34, 0.05) {
		t.Errorf("bandwidth %.2f, want ~34", c.BandwidthMBs)
	}
	// The request-size curve must rise monotonically to the peak.
	for i := 1; i < len(c.Curve); i++ {
		if c.Curve[i].WriteMBs <= c.Curve[i-1].WriteMBs || c.Curve[i].ReadMBs <= c.Curve[i-1].ReadMBs {
			t.Errorf("throughput not increasing with request size: %+v", c.Curve)
		}
	}
	out := RenderCalibration(c)
	if !strings.Contains(out, "2.85") || !strings.Contains(out, "43") {
		t.Errorf("render missing expected values:\n%s", out)
	}
}

// quickOpt shrinks arrays 64x so harness tests stay fast.
func quickOpt() Options { return Options{Scale: 6} }

func TestFig4ShapeNaturalWrite(t *testing.T) {
	f, _ := FigureByID("fig4")
	f.SizesMB = []int64{64, 512} // two sizes are enough for shape checks
	pts, err := RunFigure(f, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	byIon := map[int][]Point{}
	for _, p := range pts {
		byIon[p.IONodes] = append(byIon[p.IONodes], p)
	}
	// Normalized throughput lands in the paper's 85-98% band for the
	// large size and aggregate scales with I/O nodes.
	for _, ion := range f.IONodes {
		last := byIon[ion][len(byIon[ion])-1]
		if last.Norm < 0.80 || last.Norm > 1.0 {
			t.Errorf("ion=%d: norm=%.2f outside the paper's band", ion, last.Norm)
		}
	}
	large2 := byIon[2][len(byIon[2])-1].AggMBs
	large8 := byIon[8][len(byIon[8])-1].AggMBs
	if large8 < 3.0*large2 {
		t.Errorf("aggregate did not scale with I/O nodes: 2→%.2f, 8→%.2f", large2, large8)
	}
	// No reorganization under natural chunking.
	for _, p := range pts {
		if p.ReorgBytes != 0 {
			t.Errorf("natural chunking produced reorg bytes: %+v", p)
		}
	}
}

func TestFig3ReadAtAIXPeak(t *testing.T) {
	f, _ := FigureByID("fig3")
	f.SizesMB = []int64{512}
	f.IONodes = []int{4}
	pts, err := RunFigure(f, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Norm < 0.80 || pts[0].Norm > 1.0 {
		t.Errorf("read norm=%.2f, want paper band 0.85-0.98", pts[0].Norm)
	}
}

func TestFig6FastDiskNearMPIPeak(t *testing.T) {
	f, _ := FigureByID("fig6")
	f.SizesMB = []int64{512}
	f.IONodes = []int{4}
	pts, err := RunFigure(f, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Norm < 0.75 || pts[0].Norm > 1.0 {
		t.Errorf("fast-disk norm=%.2f, want near the paper's ~0.90", pts[0].Norm)
	}
}

func TestFig9ReorgVisibleOnFastDisk(t *testing.T) {
	// Fast disk exposes reorganization: normalized throughput must be
	// clearly below the natural-chunking fast-disk result and reorg
	// bytes non-zero (paper: 38-86% vs ~90%).
	trad, _ := FigureByID("fig9")
	trad.SizesMB = []int64{512}
	trad.IONodes = []int{4}
	tp, err := RunFigure(trad, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	nat, _ := FigureByID("fig6")
	nat.ComputeNodes = 16
	nat.Mesh = Meshes()[16]
	nat.SizesMB = []int64{512}
	nat.IONodes = []int{4}
	np, err := RunFigure(nat, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if tp[0].ReorgBytes == 0 {
		t.Error("traditional order produced no reorganization traffic")
	}
	if tp[0].Norm >= np[0].Norm {
		t.Errorf("reorg write norm %.2f not below natural %.2f", tp[0].Norm, np[0].Norm)
	}
	if tp[0].Norm < 0.30 || tp[0].Norm > 0.90 {
		t.Errorf("fast-disk reorg norm %.2f outside the paper's 38-86%% band", tp[0].Norm)
	}
}

func TestSmallArraysDegrade(t *testing.T) {
	// Startup overhead must make tiny fast-disk operations visibly
	// less efficient (paper: startup dominates as elapsed time gets
	// small).
	f, _ := FigureByID("fig5")
	f.SizesMB = []int64{16, 512}
	f.IONodes = []int{8}
	pts, err := RunFigure(f, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Norm >= pts[1].Norm {
		t.Errorf("small array norm %.2f not below large %.2f", pts[0].Norm, pts[1].Norm)
	}
}

func TestComparisonOrdersStrategies(t *testing.T) {
	rows, err := RunComparison(8*MB, 8, 2, Traditional, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	panda, two, naive := rows[0], rows[1], rows[2]
	if panda.Elapsed >= naive.Elapsed {
		t.Errorf("panda (%v) not faster than client-directed (%v)", panda.Elapsed, naive.Elapsed)
	}
	if two.Elapsed >= naive.Elapsed {
		t.Errorf("two-phase (%v) not faster than client-directed (%v)", two.Elapsed, naive.Elapsed)
	}
	out := RenderComparison("cmp", rows)
	if !strings.Contains(out, "server-directed") || !strings.Contains(out, "two-phase") {
		t.Errorf("render:\n%s", out)
	}
}

func TestSubchunkAblationFindsPlateau(t *testing.T) {
	pts, err := RunSubchunkAblation(8*MB, 8, 2, []int64{16 << 10, 256 << 10, 1 << 20}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	// Tiny sub-chunks mean tiny writes: clearly slower.
	if pts[0].AggMBs >= pts[2].AggMBs {
		t.Errorf("16KB sub-chunks (%.2f MB/s) not slower than 1MB (%.2f MB/s)",
			pts[0].AggMBs, pts[2].AggMBs)
	}
}

func TestPipelineAblationHelpsOrHolds(t *testing.T) {
	pts, err := RunPipelineAblation(8*MB, 8, 2, []int{1, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Overlap must not hurt, and usually helps on fast disks.
	if pts[1].Elapsed > pts[0].Elapsed+pts[0].Elapsed/10 {
		t.Errorf("pipeline 4 (%v) slower than pipeline 1 (%v)", pts[1].Elapsed, pts[0].Elapsed)
	}
}

func TestGranularityAblationRuns(t *testing.T) {
	pts, err := RunGranularityAblation(8*MB, 8, 2, []int{1, 4, 16}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.Elapsed <= 0 {
			t.Errorf("bad point %+v", p)
		}
	}
}

func TestRenderFigureAndCSV(t *testing.T) {
	f, _ := FigureByID("fig4")
	f.SizesMB = []int64{64}
	f.IONodes = []int{2, 4}
	pts, err := RunFigure(f, Options{Scale: 6})
	if err != nil {
		t.Fatal(err)
	}
	table := RenderFigure(f, pts)
	for _, want := range []string{"Aggregate throughput", "Normalized", "size\\ion"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	csv := RenderCSV(f, pts)
	if !strings.Contains(csv, "fig4,1,2,") {
		t.Errorf("csv unexpected:\n%s", csv)
	}
	if strings.Count(csv, "\n") != len(pts)+1 {
		t.Errorf("csv has wrong row count:\n%s", csv)
	}
}

func TestRunCellElapsedPositiveAndDeterministic(t *testing.T) {
	f, _ := FigureByID("fig8")
	a, err := RunCell(Cell{Figure: f, SizeBytes: 4 * MB, IONodes: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCell(Cell{Figure: f, SizeBytes: 4 * MB, IONodes: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("non-deterministic: %v vs %v", a.Elapsed, b.Elapsed)
	}
	if a.Elapsed <= startupOverhead {
		t.Fatalf("elapsed %v too small", a.Elapsed)
	}
	if a.Seeks != 0 {
		// Panda's whole point: strictly sequential files. The only
		// acceptable seeks are none.
		t.Fatalf("server-directed write produced %d seeks", a.Seeks)
	}
}

func TestSharingSlowsBothApplicationsDown(t *testing.T) {
	r, err := RunSharing(8*MB, 8, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Dedicated: both applications run at full speed independently.
	// Shared: the common disks serialize the two write streams and
	// add cross-tenant seeks, so each application takes roughly twice
	// as long.
	if r.Slowdown < 1.5 {
		t.Fatalf("sharing slowdown %.2fx, expected near 2x", r.Slowdown)
	}
	if r.Slowdown > 3.0 {
		t.Fatalf("sharing slowdown %.2fx implausibly high", r.Slowdown)
	}
	if r.SharedSeeks <= r.DedicatedSeeks {
		t.Fatalf("shared disks produced %d seeks, dedicated %d — interleaving must seek",
			r.SharedSeeks, r.DedicatedSeeks)
	}
	out := RenderSharing(8*MB, 8, 2, r)
	if !strings.Contains(out, "slowdown") {
		t.Errorf("render:\n%s", out)
	}
}

func TestSharingDeterministic(t *testing.T) {
	a, err := RunSharing(4*MB, 8, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSharing(4*MB, 8, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Shared != b.Shared || a.Dedicated != b.Dedicated {
		t.Fatalf("non-deterministic sharing experiment: %+v vs %+v", a, b)
	}
}

func TestMultiArrayFigureMatchesSingleArrayThroughput(t *testing.T) {
	// The paper's multiple-array claim, at test scale: a three-array
	// timestep reaches single-array throughput when chunks stay large.
	multi, _ := FigureByID("multi")
	multi.SizesMB = []int64{384}
	multi.IONodes = []int{4}
	mp, err := RunFigure(multi, Options{Scale: 4})
	if err != nil {
		t.Fatal(err)
	}
	single, _ := FigureByID("fig4")
	single.SizesMB = []int64{128}
	single.IONodes = []int{4}
	sp, err := RunFigure(single, Options{Scale: 4})
	if err != nil {
		t.Fatal(err)
	}
	if mp[0].Norm < sp[0].Norm*0.95 {
		t.Fatalf("multi-array norm %.3f well below single-array %.3f", mp[0].Norm, sp[0].Norm)
	}
}

func TestFig7ReadShape(t *testing.T) {
	f, _ := FigureByID("fig7")
	f.SizesMB = []int64{512}
	f.IONodes = []int{4}
	pts, err := RunFigure(f, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Norm < 0.60 || pts[0].Norm > 1.0 {
		t.Errorf("traditional read norm %.2f outside the paper's 0.68-0.95 band", pts[0].Norm)
	}
	if pts[0].ReorgBytes == 0 {
		t.Error("traditional read produced no reorganization")
	}
	if pts[0].Seeks != 0 {
		t.Errorf("server-directed read produced %d seeks", pts[0].Seeks)
	}
}

// TestBaselineCellMovesEveryArray: a baseline cell splits its size over
// the figure's arrays as a server-directed one does, and moves each of
// them: two arrays of S bytes cost exactly twice the requests and
// reorganized bytes of one.
func TestBaselineCellMovesEveryArray(t *testing.T) {
	for _, s := range []Strategy{TwoPhase, ClientDirected} {
		for _, op := range []Op{Write, Read} {
			f := writeFigure(8, FastDisk, Traditional)
			f.Op = op
			one, err := RunCell(Cell{Figure: f, SizeBytes: 2 * MB, IONodes: 2, Strategy: s}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			f.Arrays = 2
			two, err := RunCell(Cell{Figure: f, SizeBytes: 4 * MB, IONodes: 2, Strategy: s}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if one.Requests == 0 || two.ArrayBytes != 2*one.ArrayBytes ||
				two.Requests != 2*one.Requests || two.ReorgBytes != 2*one.ReorgBytes {
				t.Errorf("%v %v: two arrays %+v, one %+v", s, op, two, one)
			}
		}
	}
}

// TestBaselineCellRefusesTopology: the baselines run on the uniform
// net only, so a racked topology is refused rather than ignored.
func TestBaselineCellRefusesTopology(t *testing.T) {
	topo, err := mpi.ParseTopology("fat-tree:4")
	if err != nil {
		t.Fatal(err)
	}
	c := Cell{Figure: writeFigure(8, FastDisk, Natural), SizeBytes: MB, IONodes: 2, Strategy: TwoPhase}
	if _, err := RunCell(c, Options{Topology: topo}); err == nil {
		t.Fatal("a two-phase cell ran on a racked topology")
	}
}

// TestStepsHitPlanCache: a multi-step cell runs its operation once per
// step suffix through one deployment — reads too, on files populated
// under every suffix — and every step after the first replans from the
// cache.
func TestStepsHitPlanCache(t *testing.T) {
	for _, id := range []string{"fig4", "fig3"} {
		f, _ := FigureByID(id)
		p, err := RunCell(Cell{Figure: f, SizeBytes: 4 * MB, IONodes: 2, Steps: 3}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if p.PlanHits == 0 || p.PlanMisses == 0 {
			t.Errorf("%s: %d plan-cache hits, %d misses over 3 steps", id, p.PlanHits, p.PlanMisses)
		}
	}
}
