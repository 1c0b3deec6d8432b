package harness

import (
	"fmt"
	"strings"
	"time"

	"panda/internal/clock"
	"panda/internal/core"
	"panda/internal/mpi"
	"panda/internal/storage"
	"panda/internal/vtime"
)

// The paper closes: "as Panda makes it possible for each application
// on the SP2 to have its own dedicated set of i/o nodes, we are
// curious about the impact of i/o node sharing on i/o-intensive
// applications." This experiment answers the question on the simulated
// SP2: two identical Panda applications write concurrently, once with
// dedicated I/O nodes and once with both applications' servers sharing
// the same physical disks (requests serialize on the shared arms and
// disturb each other's head position, so sharing costs both contention
// and seeks).

// SharingResult compares dedicated and shared I/O node deployments.
type SharingResult struct {
	// Dedicated is each application's elapsed time with its own I/O
	// nodes; Shared with common physical disks.
	Dedicated, Shared [2]time.Duration
	// DedicatedSeeks and SharedSeeks count disk seeks across both
	// applications.
	DedicatedSeeks, SharedSeeks int64
	// Slowdown is the shared-to-dedicated ratio of the slower
	// application.
	Slowdown float64
}

// RunSharing executes the I/O-node-sharing experiment: two identical
// applications, each with its own compute nodes and servers, writing
// sizeBytes with natural chunking over ion I/O nodes.
func RunSharing(sizeBytes int64, computeNodes, ion int, opt Options) (SharingResult, error) {
	var out SharingResult
	cell := Cell{Figure: writeFigure(computeNodes, RealDisk, Natural), SizeBytes: sizeBytes, IONodes: ion}
	specs, err := specsFor(cell)
	if err != nil {
		return out, err
	}
	app := cell.app(specs)

	run := func(shared bool) ([2]time.Duration, int64, error) {
		sim := vtime.New()
		var handles [2]*core.SimHandle
		// Physical disks of application 0's I/O nodes; with sharing,
		// application 1's servers point at the same media.
		primary := make([]*storage.SimDisk, ion)

		for appIdx := 0; appIdx < 2; appIdx++ {
			appIdx := appIdx
			_, disk := disksFor(cell)
			mk := func(i int, clk clock.Clock) storage.Disk {
				d := disk(i, clk).(*storage.SimDisk)
				if appIdx == 0 {
					primary[i] = d
				} else if shared {
					d.ShareMediaWith(primary[i])
				}
				return d
			}
			h, err := core.SpawnSim(sim, fmt.Sprintf("app%d-", appIdx), configFor(cell, opt), mpi.SP2Link(), mk,
				func(cl *core.Client) error { return app(cl) })
			if err != nil {
				return [2]time.Duration{}, 0, err
			}
			handles[appIdx] = h
		}
		if err := sim.Run(); err != nil {
			return [2]time.Duration{}, 0, err
		}
		var elapsed [2]time.Duration
		var seeks int64
		for i, h := range handles {
			res, err := h.Result()
			if err != nil {
				return elapsed, 0, err
			}
			elapsed[i] = res.MaxClientElapsed()
			for _, st := range res.DiskStats {
				seeks += st.Seeks
			}
		}
		return elapsed, seeks, nil
	}

	if out.Dedicated, out.DedicatedSeeks, err = run(false); err != nil {
		return out, err
	}
	if out.Shared, out.SharedSeeks, err = run(true); err != nil {
		return out, err
	}
	slow := out.Shared[0]
	if out.Shared[1] > slow {
		slow = out.Shared[1]
	}
	base := out.Dedicated[0]
	if out.Dedicated[1] > base {
		base = out.Dedicated[1]
	}
	if base > 0 {
		out.Slowdown = slow.Seconds() / base.Seconds()
	}
	return out, nil
}

// RenderSharing renders the sharing experiment.
func RenderSharing(sizeBytes int64, computeNodes, ion int, r SharingResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "I/O node sharing — two identical applications, each %d MB write, %d CN / %d ION\n",
		sizeBytes/MB, computeNodes, ion)
	fmt.Fprintf(&b, "%-34s %14s %14s %8s\n", "configuration", "app 0", "app 1", "seeks")
	fmt.Fprintf(&b, "%-34s %14v %14v %8d\n", "dedicated i/o nodes",
		r.Dedicated[0].Round(time.Millisecond), r.Dedicated[1].Round(time.Millisecond), r.DedicatedSeeks)
	fmt.Fprintf(&b, "%-34s %14v %14v %8d\n", "shared physical disks",
		r.Shared[0].Round(time.Millisecond), r.Shared[1].Round(time.Millisecond), r.SharedSeeks)
	fmt.Fprintf(&b, "slowdown from sharing: %.2fx\n", r.Slowdown)
	return b.String()
}
