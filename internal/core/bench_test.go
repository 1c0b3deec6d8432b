package core

import (
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

// BenchmarkCollectiveInlineVsRouted is ROADMAP item 4(1) as one command
// (make bench-routed): what routing a collective through the scheduler
// costs over serving it inline, on the array of bench/'s inproc_reorg
// workload — 16 MiB from *,*,BLOCK memory to BLOCK,*,* disk, two clients
// and two servers in process — over MemDisk. One iteration is one
// collective, writes and reads alternating, so allocs/op reads against
// the wall-clock benchmark's allocs_per_op; "routed" is the same
// deployment with Sched.MaxInflight 1, which serves one operation at a
// time as "inline" does. Nothing is gated.
func BenchmarkCollectiveInlineVsRouted(b *testing.B) {
	shape := []int{512, 1024, 8}
	specs := []ArraySpec{{Name: "grid", ElemSize: 4,
		Mem:  array.MustSchema(shape, []array.Dist{array.Star, array.Star, array.Block}, []int{2}),
		Disk: array.MustSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{2})}}
	for _, arm := range []struct {
		name  string
		sched SchedConfig
	}{{"inline", SchedConfig{}}, {"routed", SchedConfig{MaxInflight: 1}}} {
		b.Run(arm.name, func(b *testing.B) {
			cfg := Config{NumClients: 2, NumServers: 2, OpTimeout: 10 * time.Second, Sched: arm.sched}
			b.SetBytes(specs[0].TotalBytes())
			b.ReportAllocs()
			err := RunReal(cfg, memDisks(cfg.NumServers), func(cl *Client) error {
				bufs := makeBufs(cl, specs, true)
				// Collectives keep the ranks in step, so rank 0 alone
				// starts and stops the measurement.
				for i := -4; i < b.N; i++ {
					if i == 0 && cl.Rank() == 0 {
						b.ResetTimer()
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
					b.StopTimer()
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
