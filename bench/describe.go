package main

import "encoding/json"

// runSeconds is how long the driver lets one run measure; the workloads'
// fixed op counts are sized so that sixteen children fit in it.
const runSeconds = 25

// describe returns BENCHMARK.json: the one place outside this package
// that names the workloads and metrics is generated from the tables the
// code measures by.
func describe() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload{w.name, w.why})
	}
	for _, m := range endToEnd {
		bound := m.bound
		doc.EndToEnd = append(doc.EndToEnd, metric{m.name, m.unit, m.better, &bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metric{m.name, m.unit, m.better, nil})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and finite numbers
	}
	return append(out, '\n')
}
