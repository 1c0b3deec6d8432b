package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"panda/internal/core"
	"panda/internal/mpi"
)

// The mixed-workload scheduler benchmark: three tenants of unequal
// weight submit independent collective writes concurrently, then read
// every array back, all through one deployment's operation scheduler.
// Run once with the configured in-flight window and once serialized
// (MaxInflight=1, the same admission queue but one op at a time) to
// measure what cross-op interleaving buys. Virtual time makes both
// points deterministic, so the bench doubles as a regression gate.

// schedTenants is the bench's fixed tenant mix: name and DRR weight.
var schedTenants = []struct {
	Name   string
	Weight int
}{
	{"gold", 4},
	{"silver", 2},
	{"bronze", 1},
}

// schedOpsPerTenant is how many arrays each tenant writes and reads.
const schedOpsPerTenant = 2

// SchedPoint is one mixed-workload measurement.
type SchedPoint struct {
	// Inflight is the scheduler's MaxInflight for this point.
	Inflight int
	// Ops counts completed operations (writes + reads).
	Ops int
	// TotalBytes is the payload moved across all operations.
	TotalBytes int64
	// Elapsed is the deployment's total virtual time.
	Elapsed time.Duration
	// AggMBs is aggregate throughput across the whole workload.
	AggMBs float64
	// P50 and P99 are percentiles of client-perceived op latency
	// (submission to completion, queue wait included), measured on the
	// master client.
	P50, P99 time.Duration
	// DiskMerges counts adjacent write requests the shared storage
	// activity coalesced across operations.
	DiskMerges int64
}

// SchedResult pairs the overlapped run with its serialized baseline.
type SchedResult struct {
	Overlapped, Serial SchedPoint
	// Speedup is serial elapsed over overlapped elapsed (>1 means
	// interleaving won).
	Speedup float64
}

// RunSchedMixed measures the mixed workload at one in-flight window:
// every tenant submits all its writes up front, the ranks await them,
// then the reads run the same way. sizeBytes is the per-operation
// array size.
func RunSchedMixed(sizeBytes int64, ion, inflight int, opt Options) (SchedPoint, error) {
	// fig4's nodes and cost model, plus the scheduler.
	cell := Cell{Figure: writeFigure(8, RealDisk, Natural), SizeBytes: sizeBytes, IONodes: ion}
	cfg := configFor(cell, opt)
	weights := make(map[string]int, len(schedTenants))
	for _, t := range schedTenants {
		weights[t.Name] = t.Weight
	}
	cfg.Sched = core.SchedConfig{
		MaxInflight: inflight,
		// Deep enough that the whole workload admits without ErrBusy:
		// backpressure is exercised by the test battery, not the
		// throughput bench.
		QueueDepth: 4 * len(schedTenants) * schedOpsPerTenant,
		Weights:    weights,
	}

	// One single-array spec per operation, names disjoint across ops so
	// nothing conflict-serializes: the bench measures scheduling, not
	// conflict handling.
	type opSpec struct {
		tenant string
		specs  []core.ArraySpec
	}
	var ops []opSpec
	for _, t := range schedTenants {
		for k := 0; k < schedOpsPerTenant; k++ {
			specs, err := specsFor(cell)
			if err != nil {
				return SchedPoint{}, err
			}
			specs[0].Name = fmt.Sprintf("%s_a%d", t.Name, k)
			ops = append(ops, opSpec{tenant: t.Name, specs: specs})
		}
	}

	var mu sync.Mutex
	var lats []time.Duration

	app := func(cl *core.Client) error {
		phase := func(submit func(o opSpec, bufs [][]byte) (*core.OpHandle, error)) error {
			handles := make([]*core.OpHandle, len(ops))
			for i, o := range ops {
				bufs := make([][]byte, len(o.specs))
				for j, spec := range o.specs {
					bufs[j] = make([]byte, spec.MemChunkBytes(cl.Rank()))
				}
				h, err := submit(o, bufs)
				if err != nil {
					return err
				}
				handles[i] = h
			}
			for i, h := range handles {
				if err := h.Await(); err != nil {
					return fmt.Errorf("op %s/%s: %w", ops[i].tenant, ops[i].specs[0].Name, err)
				}
				if cl.IsMaster() {
					mu.Lock()
					lats = append(lats, h.Elapsed())
					mu.Unlock()
				}
			}
			return nil
		}
		if err := phase(func(o opSpec, bufs [][]byte) (*core.OpHandle, error) {
			return cl.SubmitWrite(o.tenant, "", o.specs, bufs)
		}); err != nil {
			return err
		}
		return phase(func(o opSpec, bufs [][]byte) (*core.OpHandle, error) {
			return cl.SubmitRead(o.tenant, "", o.specs, bufs)
		})
	}

	_, mkDisk := disksFor(cell)
	res, err := core.RunSim(cfg, mpi.SP2Link(), mkDisk, app)
	if err != nil {
		return SchedPoint{}, err
	}

	p := SchedPoint{
		Inflight: inflight,
		Ops:      2 * len(ops),
		Elapsed:  res.Elapsed,
	}
	for _, o := range ops {
		p.TotalBytes += 2 * o.specs[0].TotalBytes() // written, then read back
	}
	if secs := p.Elapsed.Seconds(); secs > 0 {
		p.AggMBs = float64(p.TotalBytes) / MBps / secs
	}
	for _, st := range res.ServerStats {
		p.DiskMerges += st.DiskMerges
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p.P50 = percentile(lats, 0.50)
	p.P99 = percentile(lats, 0.99)
	return p, nil
}

// percentile reads the q-quantile from an ascending latency slice
// (nearest-rank method).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// RunSchedBench runs the mixed workload overlapped (inflight in-flight
// ops) and serialized (one at a time) and reports both.
func RunSchedBench(sizeBytes int64, ion, inflight int, opt Options) (SchedResult, error) {
	var out SchedResult
	var err error
	if out.Overlapped, err = RunSchedMixed(sizeBytes, ion, inflight, opt); err != nil {
		return out, err
	}
	if out.Serial, err = RunSchedMixed(sizeBytes, ion, 1, opt); err != nil {
		return out, err
	}
	if out.Overlapped.Elapsed > 0 {
		out.Speedup = out.Serial.Elapsed.Seconds() / out.Overlapped.Elapsed.Seconds()
	}
	return out, nil
}

// RenderSchedBench renders the comparison.
func RenderSchedBench(sizeBytes int64, ion int, r SchedResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Concurrent scheduler — %d tenants (weights 4:2:1), %d ops of %d MB each, %d CN / %d ION\n",
		len(schedTenants), r.Overlapped.Ops, sizeBytes/MB, 8, ion)
	fmt.Fprintf(&b, "%-24s %12s %10s %12s %12s %8s\n",
		"configuration", "elapsed", "agg MB/s", "p50 latency", "p99 latency", "merges")
	row := func(name string, p SchedPoint) {
		fmt.Fprintf(&b, "%-24s %12v %10.2f %12v %12v %8d\n",
			name, p.Elapsed.Round(time.Millisecond), p.AggMBs,
			p.P50.Round(time.Millisecond), p.P99.Round(time.Millisecond), p.DiskMerges)
	}
	row(fmt.Sprintf("overlapped (inflight=%d)", r.Overlapped.Inflight), r.Overlapped)
	row("serialized (inflight=1)", r.Serial)
	fmt.Fprintf(&b, "speedup from interleaving: %.2fx\n", r.Speedup)
	return b.String()
}
