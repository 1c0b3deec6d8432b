package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// metricDef names one metric of BENCHMARK.json. bound is the share of
// the baseline median by which an end-to-end metric may get worse;
// per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics a user of the system would see, the same
// for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"write_x_ref", "ratio", "higher", 0.20},
	{"read_x_ref", "ratio", "higher", 0.20},
	{"allocs_per_op", "count", "lower", 0.02},
	{"io_bytes_per_user_byte", "ratio", "lower", 0.01},
	{"stored_bytes_per_user_byte", "ratio", "lower", 0.01},
}

// metricValue is one measured number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pairedTimes collects, over every timed step of every child, the op
// times of one kind and the reference times that followed them, in
// milliseconds.
func pairedTimes(children []childResult, kind opKind) (op, ref []float64) {
	for _, c := range children {
		for _, ph := range c.Phases {
			t, tref := ph.W, ph.RefW
			if kind == opRead {
				t, tref = ph.R, ph.RefR
			}
			if t > 0 {
				op = append(op, float64(t)/1e6)
				ref = append(ref, float64(tref)/1e6)
			}
		}
	}
	return op, ref
}

func perChild(children []childResult, f func(c childResult) float64) []float64 {
	out := make([]float64, len(children))
	for i, c := range children {
		out[i] = f(c)
	}
	return out
}

// endToEndValues reduces a workload's children to the six end-to-end
// metrics: medians over children for set-up and the exact counts, and
// the median of per-iteration ratios for the two throughputs.
func endToEndValues(run *workloadRun) map[string]float64 {
	w, wref := pairedTimes(run.children, opWrite)
	r, rref := pairedTimes(run.children, opRead)
	return map[string]float64{
		"setup_s":     median(perChild(run.children, func(c childResult) float64 { return c.SetupS })),
		"write_x_ref": ratioMedian(wref, w),
		"read_x_ref":  ratioMedian(rref, r),
		"allocs_per_op": median(perChild(run.children, func(c childResult) float64 {
			return float64(c.Count.Mallocs) / float64(c.Count.Ops)
		})),
		"io_bytes_per_user_byte": median(perChild(run.children, func(c childResult) float64 {
			return float64(c.Count.IOBytes) / float64(c.Count.UserBytes)
		})),
		"stored_bytes_per_user_byte": median(perChild(run.children, func(c childResult) float64 {
			return float64(c.StoredBytes) / float64(c.LiveBytes)
		})),
	}
}

// printMetrics writes one "name value unit" line per metric, sorted.
func printMetrics(w io.Writer, values map[string]float64, units map[string]string) {
	for _, name := range sortedKeys(values) {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, values[name], units[name])
	}
}

// printResult writes the contract's last line.
func printResult(w io.Writer, run *workloadRun, values map[string]float64, defs []metricDef) error {
	res := result{
		Correct:   len(run.incorrect) == 0,
		Attempted: run.attempted,
		Failed:    run.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func unitsOf(defs []metricDef) map[string]string {
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		units[d.name] = d.unit
	}
	return units
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
