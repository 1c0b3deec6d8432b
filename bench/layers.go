package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// perLayer lists the metrics of single layers, taken by the traced run:
// the ladder probes, one traced collective per scenario, and spans-on
// children of the workload. They have no bound.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{name: n, unit: unit, better: better})
		}
	}
	add("GB/s", "higher", "array.pack_contig_GBps", "array.pack_run512_GBps", "array.pack_run16_GBps", "storage.crc32c_GBps")
	add("count", "lower", "array.pack_allocs_per_call")
	add("ns", "lower", "bufpool.getput_ns", "obs.span_ns")
	for _, t := range transports {
		add("us", "lower", "mpi."+t.name+".rtt_us")
		add("ratio", "higher", "mpi."+t.name+".stream_x_ref")
		add("count", "lower", "mpi."+t.name+".allocs_per_msg")
		add("ratio", "lower", "mpi."+t.name+".io_bytes_per_byte")
	}
	add("MB/s", "higher", "storage.osdisk.write_MBps", "storage.osdisk.write_sync_MBps", "storage.osdisk.read_MBps",
		"storage.memdisk.write_MBps", "storage.memdisk.read_MBps")
	add("us", "lower", "storage.commit_epoch_us", "storage.scrub_us_per_file")
	for _, scenario := range []string{"natural", "reorg"} {
		for _, kind := range []string{"write", "read"} {
			prefix := "core." + scenario + "." + kind + "."
			for _, key := range breakdownKeys[:8] {
				add("ms", "lower", prefix+key)
			}
			add("count", "lower", prefix+"msgs", prefix+"disk_calls")
		}
	}
	add("count", "lower", "core.natural.write.disk_syncs", "core.natural.write.disk_lists")
	add("ratio", "lower", "core.natural.write.commit_share")
	add("%", "lower", "core.trace_overhead_pct")
	for _, call := range setupCalls {
		add("ms", "lower", "panda."+call+"_ms")
	}
	add("ms", "lower", "panda.write_p50_ms", "panda.write_tail_ms", "panda.read_p50_ms", "panda.read_tail_ms",
		"panda.ref_write_ms", "panda.ref_read_ms")
	add("%", "higher", "panda.tail_pct")
	add("MB/s", "higher", "panda.write_MBps", "panda.read_MBps")
	add("count", "lower", "panda.msgs_per_op", "proc.syscalls_per_op")
	add("ms", "lower", "panda.pack_ms_per_op")
	add("ratio", "lower", "panda.latency_growth", "go.alloc_bytes_per_user_byte")
	add("ms/MB", "lower", "proc.cpu_ms_per_MB")
	return defs
}

// setupCalls are the public calls a child puts spans around on its way
// up and down. A call the workload does not make reads 0.
var setupCalls = []string{"start_daemon", "dial", "create", "first_run", "close", "drain"}

// childLayerValues reduces spans-on children to the workload's own
// layer metrics: latency quantiles, the reference op, the public calls
// of bring-up and shutdown, and the count pass's process costs.
func childLayerValues(run *workloadRun, out map[string]float64) {
	w, refW := pairedTimes(run.children, opWrite)
	r, refR := pairedTimes(run.children, opRead)
	tail := tailPercent(min(len(w), len(r)))
	fmt.Printf("  latency over %d write and %d read samples, tail at p%g\n", len(w), len(r), tail)
	out["panda.tail_pct"] = tail
	out["panda.write_p50_ms"] = median(w)
	out["panda.write_tail_ms"] = quantile(w, tail/100)
	out["panda.read_p50_ms"] = median(r)
	out["panda.read_tail_ms"] = quantile(r, tail/100)
	out["panda.ref_write_ms"] = median(refW)
	out["panda.ref_read_ms"] = median(refR)
	mb := float64(run.def.opBytes) / mib
	out["panda.write_MBps"] = mb / (median(w) / 1e3)
	out["panda.read_MBps"] = mb / (median(r) / 1e3)

	for _, call := range setupCalls {
		call := call
		out["panda."+call+"_ms"] = median(perChild(run.children, func(c childResult) float64 {
			var total int64
			for _, s := range c.Spans {
				if s.Track == "panda" && s.Name == call {
					total += s.End - s.Start
				}
			}
			return float64(total) / 1e6
		}))
	}
	perOp := func(f func(cp countPass) float64) float64 {
		return median(perChild(run.children, func(c childResult) float64 { return f(c.Count) / float64(c.Count.Ops) }))
	}
	out["panda.msgs_per_op"] = perOp(func(cp countPass) float64 { return cp.Msgs })
	out["panda.pack_ms_per_op"] = perOp(func(cp countPass) float64 { return cp.PackNs / 1e6 })
	out["proc.syscalls_per_op"] = perOp(func(cp countPass) float64 { return float64(cp.Syscalls) })
	out["proc.cpu_ms_per_MB"] = median(perChild(run.children, func(c childResult) float64 {
		return float64(c.Count.CPUNs) / 1e6 / (float64(c.Count.UserBytes) / mib)
	}))
	out["go.alloc_bytes_per_user_byte"] = median(perChild(run.children, func(c childResult) float64 {
		return float64(c.Count.AllocBytes) / float64(c.Count.UserBytes)
	}))
	out["panda.latency_growth"] = median(perChild(run.children, latencyGrowth))
}

// latencyGrowth is the median of a child's last timed writes over the
// median of its first: above 1 when an op costs more the more ops came
// before it. It compares twenty writes a side, or half of them each if
// there are fewer than forty.
func latencyGrowth(c childResult) float64 {
	var w []float64
	for _, ph := range c.Phases {
		if ph.W > 0 {
			w = append(w, float64(ph.W))
		}
	}
	n := min(20, len(w)/2)
	if n == 0 {
		return 1
	}
	return median(w[len(w)-n:]) / median(w[:n])
}

// layerRun is the traced run of one workload: ladder, traced
// collectives, then spans-on children for the time that is left. It
// prints every per-layer metric, the contract's result line last, and
// writes the spans as a Chrome trace.
func layerRun(def *workloadDef, opts runOpts, tracePath string) error {
	start := time.Now()
	dir := filepath.Join(opts.dataRoot, "layers-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	values := map[string]float64{}
	if err := ladder(dir, values); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	groups, err := collectiveProbes(dir, values)
	if err != nil {
		return err
	}
	probes := time.Since(start)

	opts.seconds -= probes.Seconds()
	run := runChildren(def, opts, traceChildren, true)
	printRunHeader(fmt.Sprintf("per-layer (probes %.1f s)", probes.Seconds()), run)
	if err := checkSurvivors(run); err != nil {
		return err
	}
	childLayerValues(run, values)
	groups["child."+def.name] = run.children[0].Spans
	if err := writeChromeTrace(tracePath, groups); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Printf("  trace: %s\n", tracePath)
	printMetrics(os.Stdout, values, unitsOf(perLayer))
	return printResult(os.Stdout, run, values, perLayer)
}
