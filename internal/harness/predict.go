package harness

import (
	"fmt"
	"sort"
	"time"

	"panda/internal/array"
	"panda/internal/costmodel"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// predict.go prices a cell with the analytic cost model (the paper's
// future-work item) from the same configuration and array specs RunCell
// runs, so a prediction and a simulation of one Cell describe one
// deployment.

// inputsFor describes a server-directed cell to the cost model.
func inputsFor(c Cell, opt Options) (costmodel.Inputs, error) {
	if c.Strategy != ServerDirected {
		return costmodel.Inputs{}, fmt.Errorf("harness: the cost model prices server-directed cells only, not %v", c.Strategy)
	}
	specs, err := specsFor(c)
	if err != nil {
		return costmodel.Inputs{}, err
	}
	return costmodel.Inputs{
		Cfg:      configFor(c, opt),
		Specs:    specs,
		Link:     mpi.SP2Link(),
		Topo:     opt.Topology,
		Disk:     storage.SP2AIX(),
		FastDisk: c.Figure.Disk == FastDisk,
		Write:    c.Figure.Op == Write,
	}, nil
}

// PredictCell prices one operation of a server-directed cell.
func PredictCell(c Cell, opt Options) (costmodel.Breakdown, error) {
	in, err := inputsFor(c, opt)
	if err != nil {
		return costmodel.Breakdown{}, err
	}
	return costmodel.Predict(in), nil
}

// Candidate is one disk schema of a ranking and its predicted elapsed.
type Candidate struct {
	Label   string
	Elapsed time.Duration
}

// RankCandidates prices a cell under a standard family of disk schemas
// built from its memory schema, best first (ties keep the family's
// order) — the schema selection the paper motivates the cost model
// with. The cell's own disk schema is ignored; its disk mode, network
// and every other knob hold for each candidate.
func RankCandidates(c Cell, opt Options) ([]Candidate, error) {
	in, err := inputsFor(c, opt)
	if err != nil {
		return nil, err
	}
	mem, ion := in.Specs[0].Mem, c.IONodes
	bss := []array.Dist{array.Block, array.Star, array.Star}
	var out []Candidate
	add := func(label string, disk array.Schema, err error) {
		if err != nil {
			return
		}
		for i := range in.Specs {
			in.Specs[i].Disk = disk
		}
		out = append(out, Candidate{Label: label, Elapsed: costmodel.Predict(in).Elapsed})
	}
	s, err := array.NewSchema(mem.Shape, bss, []int{ion})
	add(fmt.Sprintf("traditional  BLOCK,*,* on %d", ion), s, err)
	add("natural      same as memory", mem, nil)
	s, err = array.NewSchema(mem.Shape, bss, []int{4 * ion})
	add(fmt.Sprintf("medium       BLOCK,*,* on %d", 4*ion), s, err)
	s, err = array.NewSchema(mem.Shape, []array.Dist{array.Block, array.Block, array.Star}, []int{ion, 4})
	add(fmt.Sprintf("2-D striped  BLOCK,BLOCK,* on %dx4", ion), s, err)
	fine := min(mem.Shape[0], 64*ion)
	s, err = array.NewSchema(mem.Shape, bss, []int{fine})
	add(fmt.Sprintf("fine         BLOCK,*,* on %d", fine), s, err)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Elapsed < out[j].Elapsed })
	return out, nil
}
