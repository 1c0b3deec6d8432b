package core

import (
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

// reorgSpecs is the array of bench/'s inproc_reorg workload: 16 MiB
// from *,*,BLOCK memory to BLOCK,*,* disk, two clients and two servers.
func reorgSpecs() []ArraySpec {
	shape := []int{512, 1024, 8}
	return []ArraySpec{{Name: "grid", ElemSize: 4,
		Mem:  array.MustSchema(shape, []array.Dist{array.Star, array.Star, array.Block}, []int{2}),
		Disk: array.MustSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{2})}}
}

// storageWindows are the two deployments compared. Both serve one
// operation at a time through the same router, executors and storage
// stage; they differ in the write window: MaxInflight 0 waits for each
// write (the paper's serial loop), MaxInflight 1 keeps two behind the
// mover.
var storageWindows = []struct {
	name  string
	sched SchedConfig
}{{"window-0", SchedConfig{}}, {"window-2", SchedConfig{MaxInflight: 1}}}

// runArm runs warm+n collectives of specs, writes and reads alternating,
// on two clients and two servers in process over MemDisk. Callers warm
// up for twelve: the queues the executors reuse are still growing to
// their working size after four. Collectives keep the ranks in step, so
// rank 0 alone calls start when the warm-up is done and stop after the
// last one.
func runArm(sched SchedConfig, specs []ArraySpec, warm, n int, start, stop func()) error {
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

// TestCollectiveAllocBudget holds what "plan once, then move bytes"
// bought: a write+read pair of the inproc_reorg array allocates at most
// pairBudget objects in the whole process — four nodes, their storage
// stages and MemDisk included — at either write window, and write-behind
// costs at most 2 % over a window of zero. The collector is held off
// while the pairs are counted, as the little garbage a file-backed
// deployment makes holds it off there: a collection empties every
// sync.Pool, and the refills (some 40 a pair here, where MemDisk makes
// 30 MB of garbage an operation) are the collector's timing, not the
// program's doing. Measured: 220–224 at either window since a write
// recycles the retained epoch's file and its commit skips the probes
// (249–254 before), so the budget leaves a quarter.
func TestCollectiveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const pairs, pairBudget = 10, 300
	specs := reorgSpecs()
	perPair := make(map[string]float64)
	for _, w := range storageWindows {
		var m0, m1 runtime.MemStats
		gc := 100
		err := runArm(w.sched, specs, 12, 2*pairs,
			func() { runtime.GC(); gc = debug.SetGCPercent(-1); runtime.ReadMemStats(&m0) },
			func() { runtime.ReadMemStats(&m1); debug.SetGCPercent(gc) })
		if err != nil {
			t.Fatal(err)
		}
		got := float64(m1.Mallocs-m0.Mallocs) / pairs
		perPair[w.name] = got
		if got > pairBudget {
			t.Errorf("%s: %.0f allocations per write+read pair, budget %d", w.name, got, pairBudget)
		}
	}
	if w0, w2 := perPair["window-0"], perPair["window-2"]; w2 > 1.02*w0 {
		t.Errorf("write-behind %.0f allocations per pair, window 0 %.0f: the window costs %.1f %%, more than 2 %%", w2, w0, 100*(w2/w0-1))
	}
	t.Logf("allocations per write+read pair: window 0 %.0f, window 2 %.0f", perPair["window-0"], perPair["window-2"])
}
