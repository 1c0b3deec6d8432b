// pandasim runs one collective-I/O experiment on the simulated SP2
// with every knob exposed, printing throughput and traffic counters.
//
//	go run ./cmd/pandasim -op write -size 64 -cn 8 -ion 4
//	go run ./cmd/pandasim -op read -schema trad -cn 32 -ion 6 -size 256
//	go run ./cmd/pandasim -op write -disk fast -pipeline 4
//	go run ./cmd/pandasim -strategy two-phase -op write -schema trad
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

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
	flag.Parse()

	mesh, ok := harness.Meshes()[*cn]
	if !ok {
		fmt.Fprintf(os.Stderr, "no mesh for %d compute nodes (use 8, 16, 24, 32, 64, 128, 256, 512 or 1024)\n", *cn)
		os.Exit(2)
	}
	topo, err := mpi.ParseTopology(*topoSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *flatSched && topo == nil {
		fmt.Fprintln(os.Stderr, "-flat-schedules needs -topo")
		os.Exit(2)
	}
	f := harness.Figure{
		ComputeNodes: *cn, Mesh: mesh, Arrays: *arrays,
		Op: harness.Write, Disk: harness.RealDisk, Schema: harness.Natural,
	}
	if *op == "read" {
		f.Op = harness.Read
	}
	if *disk == "fast" {
		f.Disk = harness.FastDisk
	}
	if *schema == "trad" {
		f.Schema = harness.Traditional
	}
	opt := harness.Options{SubchunkBytes: *subchunk, Pipeline: *pipeline, ReadAhead: *readahead,
		Topology: topo, FlatSchedules: *flatSched}
	var rec *obs.Recorder
	if *tracePath != "" {
		rec = obs.NewRecorder(0)
		opt.Trace = rec
	}

	strat := harness.Strategy(-1)
	for _, st := range harness.Strategies() {
		if st.String() == *strategy {
			strat = st
		}
	}
	if strat < 0 {
		fmt.Fprintf(os.Stderr, "unknown strategy %q\n", *strategy)
		os.Exit(2)
	}
	if strat != harness.ServerDirected && rec != nil {
		log.Fatal("-trace is only supported with -strategy server-directed")
	}

	p, err := harness.RunCell(harness.Cell{Figure: f, SizeBytes: *sizeMB * harness.MB, IONodes: *ion, Strategy: strat}, opt)
	if err != nil {
		log.Fatal(err)
	}
	head := fmt.Sprintf("%s %d MB, %d compute nodes, %d i/o nodes, %s schema, %s disk", *op, *sizeMB, *cn, *ion, *schema, *disk)
	if strat == harness.ServerDirected {
		net := "uniform SP2 net"
		if topo != nil {
			net = "topology " + topo.String()
			if *flatSched {
				net += " (flat schedules)"
			}
		}
		fmt.Printf("%s, %s\n", head, net)
	} else {
		fmt.Printf("%s: %s\n", strat, head)
	}
	fmt.Printf("  elapsed      %v\n", p.Elapsed.Round(time.Microsecond))
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
		fmt.Printf("  overlap      %v hidden, %v stalled\n",
			time.Duration(p.OverlapNanos).Round(time.Microsecond),
			time.Duration(p.StallNanos).Round(time.Microsecond))
	}
	if rec != nil {
		out, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.WriteChromeTrace(out); err != nil {
			log.Fatal(err)
		}
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace: wrote %d events to %s (load at https://ui.perfetto.dev)\n", len(rec.Events()), *tracePath)
		fmt.Print(obs.RenderPhases(obs.Phases(rec)))
	}
}
