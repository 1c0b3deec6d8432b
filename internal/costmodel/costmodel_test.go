package costmodel_test

import (
	"math"
	"strings"
	"testing"

	"panda/internal/harness"
	"panda/internal/mpi"
)

// cell is one server-directed cell of a single array: sizeMB over nc
// compute nodes (the paper's meshes) and ion I/O nodes. The model and
// the simulation see it through the same harness builders.
func cell(op harness.Op, schema harness.SchemaMode, disk harness.DiskMode, sizeMB int64, nc, ion int) harness.Cell {
	return harness.Cell{
		Figure: harness.Figure{ComputeNodes: nc, Mesh: harness.Meshes()[nc], Arrays: 1,
			Op: op, Disk: disk, Schema: schema},
		SizeBytes: sizeMB * harness.MB,
		IONodes:   ion,
	}
}

// predicted is the model's elapsed for c.
func predicted(t *testing.T, c harness.Cell, opt harness.Options) float64 {
	t.Helper()
	b, err := harness.PredictCell(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	return b.Elapsed.Seconds()
}

// simulated is the paper's elapsed metric of c on the simulated SP2:
// reads start cold, as RunCell fabricates their files.
func simulated(t *testing.T, c harness.Cell) float64 {
	t.Helper()
	return simulatedWith(t, c, harness.Options{})
}

// simulatedWith is simulated under opt.
func simulatedWith(t *testing.T, c harness.Cell, opt harness.Options) float64 {
	t.Helper()
	p, err := harness.RunCell(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p.Elapsed.Seconds()
}

func TestPredictionTracksSimulation(t *testing.T) {
	const (
		w, r      = harness.Write, harness.Read
		nat, trad = harness.Natural, harness.Traditional
		aix, fast = harness.RealDisk, harness.FastDisk
	)
	cases := []struct {
		name string
		c    harness.Cell
		opt  harness.Options
		tol  float64
	}{
		{"write-natural-8c2s-8MB", cell(w, nat, aix, 8, 8, 2), harness.Options{}, 0.15},
		{"write-natural-8c4s-16MB", cell(w, nat, aix, 16, 8, 4), harness.Options{}, 0.15},
		{"write-trad-16c4s-8MB", cell(w, trad, aix, 8, 16, 4), harness.Options{}, 0.15},
		{"write-natural-fast-32c4s-16MB", cell(w, nat, fast, 16, 32, 4), harness.Options{}, 0.25},
		{"write-trad-fast-16c4s-16MB", cell(w, trad, fast, 16, 16, 4), harness.Options{}, 0.30},
		{"read-natural-8c4s-16MB", cell(r, nat, aix, 16, 8, 4), harness.Options{}, 0.15},
		{"read-trad-16c4s-8MB", cell(r, trad, aix, 8, 16, 4), harness.Options{}, 0.15},
		{"read-natural-fast-32c4s-16MB", cell(r, nat, fast, 16, 32, 4), harness.Options{}, 0.25},
		// Reads kept outstanding hide the network behind the disk: the
		// model must credit the overlap, or it is 6 % slow here.
		{"read-natural-readahead2-8c4s-16MB", cell(r, nat, aix, 16, 8, 4), harness.Options{ReadAhead: 2}, 0.03},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := predicted(t, c.c, c.opt), simulatedWith(t, c.c, c.opt)
			if err := math.Abs(got-want) / want; err > c.tol {
				t.Fatalf("predicted %.6fs, simulated %.6fs (relative error %.1f%% > %.0f%%)",
					got, want, err*100, c.tol*100)
			}
		})
	}
}

func TestPredictionScalesWithSizeAndServers(t *testing.T) {
	at := func(sizeMB int64, ion int) float64 {
		return predicted(t, cell(harness.Write, harness.Natural, harness.RealDisk, sizeMB, 8, ion), harness.Options{})
	}
	if ratio := at(32, 2) / at(8, 2); ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("4x data predicted %.2fx time", ratio)
	}
	if speedup := at(32, 2) / at(32, 8); speedup < 3.0 || speedup > 4.5 {
		t.Fatalf("4x servers predicted %.2fx speedup", speedup)
	}
}

func TestPredictionBreakdownConsistent(t *testing.T) {
	b, err := harness.PredictCell(cell(harness.Write, harness.Traditional, harness.RealDisk, 16, 8, 4), harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.PerServer) != 4 || len(b.PerClient) != 8 {
		t.Fatalf("breakdown sizes: %d servers, %d clients", len(b.PerServer), len(b.PerClient))
	}
	for s := range b.PerServer {
		if b.PerServer[s] != b.PerServerDisk[s]+b.PerServerNet[s] {
			t.Fatalf("server %d: %v != %v + %v (pipeline=1 must be serial)",
				s, b.PerServer[s], b.PerServerDisk[s], b.PerServerNet[s])
		}
		if b.PerServerDisk[s] <= 0 {
			t.Fatalf("server %d predicted zero disk time", s)
		}
	}
	if b.Elapsed <= b.Startup {
		t.Fatal("elapsed not above startup")
	}
}

func TestPipelinePredictionOverlaps(t *testing.T) {
	// Real disks: the pipeline hides sub-chunk gathering behind disk
	// writes, so the overlapped prediction must be strictly smaller.
	c := cell(harness.Write, harness.Traditional, harness.RealDisk, 16, 16, 4)
	serial := predicted(t, c, harness.Options{})
	if overlapped := predicted(t, c, harness.Options{Pipeline: 4}); overlapped >= serial {
		t.Fatalf("pipeline prediction %vs not below serial %vs", overlapped, serial)
	}
}

// rank returns the candidate ranking of c under opt.
func rank(t *testing.T, c harness.Cell, opt harness.Options) []harness.Candidate {
	t.Helper()
	cands, err := harness.RankCandidates(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 5 {
		t.Fatalf("%d candidates, want 5: %v", len(cands), cands)
	}
	return cands
}

func TestRankPrefersFewerSeeksAndRightSizedChunks(t *testing.T) {
	// A 16 MB array on 4 I/O nodes: the fine-grained layout, whose
	// 64 KB chunks fall down the request-size curve, must rank last.
	cands := rank(t, cell(harness.Write, harness.Natural, harness.RealDisk, 16, 8, 4), harness.Options{})
	if last := cands[len(cands)-1].Label; !strings.HasPrefix(last, "fine") {
		t.Fatalf("fine-grained schema not ranked last: %v", cands)
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Elapsed < cands[i-1].Elapsed {
			t.Fatalf("ranking not best first: %v", cands)
		}
	}
}

func TestRankFollowsDiskModeAndNetwork(t *testing.T) {
	// The ranking prices every candidate under the cell's disk mode and
	// network: neither infinitely fast disks nor an oversubscribed rack
	// fabric may leave the uniform-AIX times standing.
	c := cell(harness.Write, harness.Natural, harness.RealDisk, 16, 16, 4)
	aix := rank(t, c, harness.Options{})
	topo, err := mpi.ParseTopology("oversub:4:2")
	if err != nil {
		t.Fatal(err)
	}
	racked := rank(t, c, harness.Options{Topology: topo})
	c.Figure.Disk = harness.FastDisk
	fast := rank(t, c, harness.Options{})
	for i := range aix {
		if aix[i] == racked[i] || aix[i] == fast[i] {
			t.Fatalf("candidate %d priced alike under different machines:\naix    %v\nracked %v\nfast   %v", i, aix, racked, fast)
		}
	}
}

func TestRankAgreesWithSimulation(t *testing.T) {
	// The model's ranking of coarse vs fine striping must match what
	// the simulator measures.
	coarse := cell(harness.Write, harness.Traditional, harness.RealDisk, 8, 8, 2)
	fine := coarse
	fine.ChunksPerION = 32
	modelSaysCoarseFirst := predicted(t, coarse, harness.Options{}) < predicted(t, fine, harness.Options{})
	simCoarse, simFine := simulated(t, coarse), simulated(t, fine)
	if modelSaysCoarseFirst != (simCoarse < simFine) {
		t.Fatalf("model disagrees with simulation (coarse %.6fs vs fine %.6fs)", simCoarse, simFine)
	}
}

func TestPredictionRefusesBaselines(t *testing.T) {
	c := cell(harness.Write, harness.Traditional, harness.RealDisk, 8, 8, 2)
	c.Strategy = harness.TwoPhase
	if _, err := harness.PredictCell(c, harness.Options{}); err == nil {
		t.Fatal("a two-phase cell was priced with the server-directed model")
	}
}
