package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"panda/internal/array"
	"panda/internal/bufpool"
)

// Allocation benchmarks for the sub-chunk hot path. Every sub-chunk a
// server moves costs one wire frame (encodeSubData) and, off the
// contiguous fast path, one extract scratch buffer; at paper scale that
// is thousands of megabyte-sized allocations per collective. The
// consumers recycle both through bufpool, so the steady state should
// run at ~zero heap allocations per sub-chunk. The *Fresh variants
// measure the same work with plain make() for contrast.

func BenchmarkSubchunkFramePooled(b *testing.B) {
	d := subData{ArrayIdx: 1, ReqID: 7,
		Region:  array.NewRegion([]int{0, 0, 0}, []int{64, 64, 64}),
		Payload: make([]byte, 1<<20)}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame := encodeSubData(d)
		if len(frame) < 1<<20 {
			b.Fatal("short encode")
		}
		bufpool.Put(frame) // what every frame consumer does after copy-out
	}
}

func BenchmarkSubchunkFrameFresh(b *testing.B) {
	payload := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame := make([]byte, len(payload)+32)
		if copy(frame[32:], payload) != len(payload) {
			b.Fatal("short copy")
		}
	}
}

func BenchmarkExtractPooled(b *testing.B) {
	outer := array.Box([]int{128, 128})
	sect := array.NewRegion([]int{0, 32}, []int{128, 96})
	src := make([]byte, outer.NumElems()*8)
	b.SetBytes(sect.NumElems() * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmp := array.Extract(src, outer, sect, 8)
		bufpool.Put(tmp) // the scatter/gather paths recycle the scratch
	}
}

// routedBenchSpecs is the array of bench/'s inproc_reorg workload: 16 MiB
// from *,*,BLOCK memory to BLOCK,*,* disk, two clients and two servers.
func routedBenchSpecs() []ArraySpec {
	shape := []int{512, 1024, 8}
	return []ArraySpec{{Name: "grid", ElemSize: 4,
		Mem:  array.MustSchema(shape, []array.Dist{array.Star, array.Star, array.Block}, []int{2}),
		Disk: array.MustSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{2})}}
}

// routedArms are the two deployments compared: "routed" is "inline" with
// Sched.MaxInflight 1, which serves one operation at a time as inline
// does.
var routedArms = []struct {
	name  string
	sched SchedConfig
}{{"inline", SchedConfig{}}, {"routed", SchedConfig{MaxInflight: 1}}}

// runRoutedArm runs warm+n collectives of specs, writes and reads
// alternating, on two clients and two servers in process over MemDisk.
// Callers warm up for twelve: the queues the scheduler path reuses are
// still growing to their working size after four.
// Collectives keep the ranks in step, so rank 0 alone calls start when
// the warm-up is done and stop after the last one.
func runRoutedArm(sched SchedConfig, specs []ArraySpec, warm, n int, start, stop func()) error {
	cfg := Config{NumClients: 2, NumServers: 2, OpTimeout: 10 * time.Second, Sched: sched}
	return RunReal(cfg, memDisks(cfg.NumServers), func(cl *Client) error {
		bufs := makeBufs(cl, specs, true)
		for i := -warm; i < n; i++ {
			if i == 0 && cl.Rank() == 0 {
				start()
			}
			op := cl.WriteArrays
			if i&1 == 1 {
				op = cl.ReadArrays
			}
			if err := op(".ckpt", specs, bufs); err != nil {
				return err
			}
		}
		if cl.Rank() == 0 {
			stop()
		}
		return nil
	})
}

// BenchmarkCollectiveInlineVsRouted is ROADMAP item 4(1) as one command
// (make bench-routed): what routing a collective through the scheduler
// costs over serving it inline, on the array of bench/'s inproc_reorg
// workload over MemDisk. One iteration is one collective, so allocs/op
// reads against the wall-clock benchmark's allocs_per_op; the ratio of
// the two rows is printed after them. Nothing is gated here:
// TestCollectiveAllocBudget gates the counts.
func BenchmarkCollectiveInlineVsRouted(b *testing.B) {
	specs := routedBenchSpecs()
	perOp := make(map[string]float64)
	for _, arm := range routedArms {
		b.Run(arm.name, func(b *testing.B) {
			b.SetBytes(specs[0].TotalBytes())
			b.ReportAllocs()
			var m0, m1 runtime.MemStats
			err := runRoutedArm(arm.sched, specs, 12, b.N,
				func() { runtime.ReadMemStats(&m0); b.ResetTimer() }, func() { b.StopTimer(); runtime.ReadMemStats(&m1) })
			if err != nil {
				b.Fatal(err)
			}
			perOp[arm.name] = float64(m1.Mallocs-m0.Mallocs) / float64(b.N)
		})
	}
	if in := perOp["inline"]; in > 0 {
		fmt.Printf("routed / inline allocs/op: %.3f\n", perOp["routed"]/in)
	}
}

// TestCollectiveAllocBudget holds what "plan once, then move bytes"
// bought: a write+read pair of the bench-routed array allocates at most
// pairBudget objects in the whole process — four nodes, their storage
// stages and MemDisk included — served inline or through the scheduler,
// and the scheduler costs at most 2 % over inline. The collector is held
// off while the pairs are counted, as the little garbage a file-backed
// deployment makes holds it off there: a collection empties every
// sync.Pool, and the refills (some 40 a pair here, where MemDisk makes
// 30 MB of garbage an operation) are the collector's timing, not the
// program's doing. Measured: 269 inline and 271 routed, so the budget
// leaves a tenth; the parent commit read 1113 and 1357.
func TestCollectiveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const pairs, pairBudget = 10, 300
	specs := routedBenchSpecs()
	perPair := make(map[string]float64)
	for _, arm := range routedArms {
		var m0, m1 runtime.MemStats
		gc := 100
		err := runRoutedArm(arm.sched, specs, 12, 2*pairs,
			func() { runtime.GC(); gc = debug.SetGCPercent(-1); runtime.ReadMemStats(&m0) },
			func() { runtime.ReadMemStats(&m1); debug.SetGCPercent(gc) })
		if err != nil {
			t.Fatal(err)
		}
		got := float64(m1.Mallocs-m0.Mallocs) / pairs
		perPair[arm.name] = got
		if got > pairBudget {
			t.Errorf("%s: %.0f allocations per write+read pair, budget %d", arm.name, got, pairBudget)
		}
	}
	if in, ro := perPair["inline"], perPair["routed"]; ro > 1.02*in {
		t.Errorf("routed %.0f allocations per pair, inline %.0f: the scheduler costs %.1f %%, more than 2 %%", ro, in, 100*(ro/in-1))
	}
	t.Logf("allocations per write+read pair: inline %.0f, routed %.0f", perPair["inline"], perPair["routed"])
}
