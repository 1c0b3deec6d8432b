// pandasim runs one collective-I/O experiment on the simulated SP2
// with every knob exposed, printing throughput and traffic counters
// and, for Panda's server-directed I/O, the analytic cost model's
// prediction of the same cell beside the simulated time. -candidates
// ranks disk schemas for the cell by predicted time instead of running
// it — schema selection without running any I/O.
//
//	go run ./cmd/pandasim -op write -size 64 -cn 8 -ion 4
//	go run ./cmd/pandasim -op read -schema trad -cn 32 -ion 6 -size 256
//	go run ./cmd/pandasim -op write -disk fast -pipeline 4
//	go run ./cmd/pandasim -strategy two-phase -op write -schema trad
//	go run ./cmd/pandasim -size 256 -cn 32 -candidates
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"panda/internal/costmodel"
	"panda/internal/harness"
	"panda/internal/mpi"
	"panda/internal/obs"
)

func main() {
	op := flag.String("op", "write", "operation: write or read")
	sizeMB := flag.Int64("size", 64, "array size in MB (power of two)")
	cn := flag.Int("cn", 8, "compute nodes: 8, 16, 24 or 32")
	ion := flag.Int("ion", 4, "i/o nodes")
	schema := flag.String("schema", "natural", "disk schema: natural or trad")
	disk := flag.String("disk", "aix", "disk model: aix or fast")
	subchunk := flag.Int64("subchunk", 0, "sub-chunk bytes (0 = 1 MB)")
	pipeline := flag.Int("pipeline", 0, "write pipeline depth (0 = blocking)")
	readahead := flag.Int("readahead", 0, "read prefetch depth (0 = serial reads)")
	arrays := flag.Int("arrays", 1, "arrays per collective call")
	topoSpec := flag.String("topo", "", `network topology: "flat" (default), "fat-tree:RACK", "oversub:RACK:FACTOR", or "rack=N,oversub=F,xlat=D,o=D[,lat=D,bw=B]" (server-directed only; enables synthesized schedules)`)
	flatSched := flag.Bool("flat-schedules", false, "keep the paper's flat schedules on a racked network (needs -topo)")
	strategy := flag.String("strategy", "server-directed", "server-directed, two-phase or client-directed")
	tracePath := flag.String("trace", "", "write the run's Chrome trace-event JSON here (server-directed only; exact virtual-time spans) and print a phase breakdown")
	candidates := flag.Bool("candidates", false, "rank candidate disk schemas for the cell by predicted time instead of running it (server-directed only)")
	flag.Parse()

	strategies := map[string]harness.Strategy{}
	for _, st := range harness.Strategies() {
		strategies[st.String()] = st
	}
	strat := lookup("strategy", *strategy, strategies)
	f := harness.Figure{
		ComputeNodes: *cn, Arrays: *arrays,
		Op:     lookup("op", *op, map[string]harness.Op{"write": harness.Write, "read": harness.Read}),
		Disk:   lookup("disk", *disk, map[string]harness.DiskMode{"aix": harness.RealDisk, "fast": harness.FastDisk}),
		Schema: lookup("schema", *schema, map[string]harness.SchemaMode{"natural": harness.Natural, "trad": harness.Traditional}),
	}
	mesh, ok := harness.Meshes()[*cn]
	if !ok {
		fmt.Fprintf(os.Stderr, "no mesh for %d compute nodes (use 8, 16, 24, 32, 64, 128, 256, 512 or 1024)\n", *cn)
		os.Exit(2)
	}
	f.Mesh = mesh
	topo, err := mpi.ParseTopology(*topoSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *flatSched && topo == nil {
		fmt.Fprintln(os.Stderr, "-flat-schedules needs -topo")
		os.Exit(2)
	}
	if *candidates && *tracePath != "" {
		fmt.Fprintln(os.Stderr, "-trace needs a run; -candidates runs nothing")
		os.Exit(2)
	}
	opt := harness.Options{SubchunkBytes: *subchunk, Pipeline: *pipeline, ReadAhead: *readahead,
		Topology: topo, FlatSchedules: *flatSched}
	var rec *obs.Recorder
	if *tracePath != "" {
		rec = obs.NewRecorder(0)
		opt.Trace = rec
	}
	if strat != harness.ServerDirected && rec != nil {
		log.Fatal("-trace is only supported with -strategy server-directed")
	}
	cell := harness.Cell{Figure: f, SizeBytes: *sizeMB * harness.MB, IONodes: *ion, Strategy: strat}

	net := "uniform SP2 net"
	if topo != nil {
		net = "topology " + topo.String()
		if *flatSched {
			net += " (flat schedules)"
		}
	}
	head := fmt.Sprintf("%s %d MB, %d compute nodes, %d i/o nodes", *op, *sizeMB, *cn, *ion)
	if *candidates {
		cands, err := harness.RankCandidates(cell, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s, %s disk, %s\ndisk schema candidates, best first:\n", head, *disk, net)
		for i, c := range cands {
			fmt.Printf("  %d. %-36s predicted %v\n", i+1, c.Label, c.Elapsed.Round(time.Millisecond))
		}
		return
	}

	p, err := harness.RunCell(cell, opt)
	if err != nil {
		log.Fatal(err)
	}
	head += fmt.Sprintf(", %s schema, %s disk", *schema, *disk)
	if strat == harness.ServerDirected {
		fmt.Printf("%s, %s\n", head, net)
	} else {
		fmt.Printf("%s: %s\n", strat, head)
	}
	fmt.Printf("  elapsed      %v\n", p.Elapsed.Round(time.Microsecond))
	var pred costmodel.Breakdown
	if strat == harness.ServerDirected {
		if pred, err = harness.PredictCell(cell, opt); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  predicted    %v\n", pred.Elapsed.Round(time.Millisecond))
	}
	fmt.Printf("  aggregate    %.2f MB/s\n", p.AggMBs)
	if strat == harness.ServerDirected {
		fmt.Printf("  normalized   %.3f (vs %.2f MB/s peak per i/o node)\n", p.Norm, f.NormPeak()/harness.MBps)
		fmt.Printf("  messages     %d\n", p.Messages)
	} else {
		fmt.Printf("  requests     %d\n", p.Requests)
	}
	fmt.Printf("  reorg bytes  %d\n", p.ReorgBytes)
	fmt.Printf("  disk seeks   %d\n", p.Seeks)
	if p.OverlapNanos > 0 || p.StallNanos > 0 {
		// Both are sums over the i/o nodes, so they may exceed elapsed.
		fmt.Printf("  disk hidden  %v: disk time overlapped with the network (sum over i/o nodes)\n",
			time.Duration(p.OverlapNanos).Round(time.Microsecond))
		fmt.Printf("  disk stall   %v: mover time waiting on the disk (sum over i/o nodes)\n",
			time.Duration(p.StallNanos).Round(time.Microsecond))
	}
	for s := range pred.PerServer {
		fmt.Printf("  i/o node %-3d predicted busy %v (disk %v, network %v)\n", s,
			pred.PerServer[s].Round(time.Millisecond),
			pred.PerServerDisk[s].Round(time.Millisecond), pred.PerServerNet[s].Round(time.Millisecond))
	}
	if rec != nil {
		if err := rec.SaveTrace(*tracePath, os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

// lookup returns the value flag -name names by s, or exits 2 naming the
// accepted values.
func lookup[T any](name, s string, values map[string]T) T {
	v, ok := values[s]
	if ok {
		return v
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "unknown -%s %q (use %s)\n", name, s, strings.Join(names, ", "))
	os.Exit(2)
	return v
}
