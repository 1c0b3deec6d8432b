// Package bufpool recycles the byte buffers of the collective-I/O hot
// path: sub-chunk assembly buffers, read staging buffers, and wire
// frames. Buffers are pooled in size classes (powers of two, plus a
// small "frame" sibling per class that fits a payload of that size and
// its protocol header), so a steady-state server moves arbitrarily much
// data with a bounded, constant set of live buffers.
//
// Only GetRaw buffers come from the pool, but Put accepts any slice:
// a slice whose capacity is not exactly a class size is silently
// dropped. This makes ownership mistakes safe — handing back a subslice
// of a pooled buffer (or a buffer that never came from the pool) cannot
// poison a class with short capacities; it merely forfeits reuse.
//
// A sync.Pool stores pointers, so each class holds *[]byte boxes. The
// boxes are recycled too: GetRaw empties the box it took a buffer out of
// and parks it, and Put fills a parked box instead of making one — a
// steady-state GetRaw/Put pair allocates nothing, not even a slice header.
//
// All operations are lock-free (sync.Pool plus atomic counters), so the
// pool is safe to use from vtime simulated processes: nothing parks.
package bufpool

import (
	"sync"
	"sync/atomic"

	"panda/internal/obs"
)

// frameSlack is the extra room of each class's frame sibling: enough
// for any protocol header this codebase puts in front of a sub-chunk
// payload.
const frameSlack = 4096

const (
	minShift = 8  // smallest class: 256 B
	maxShift = 22 // largest class: 4 MiB (+ slack sibling)
)

// classSizes lists the class capacities in ascending order.
var classSizes = func() []int {
	var s []int
	for shift := minShift; shift <= maxShift; shift++ {
		s = append(s, 1<<shift, 1<<shift+frameSlack)
	}
	return s
}()

// pools holds each class's idle buffers, boxed as *[]byte; boxes holds
// the empty boxes of buffers currently checked out, shared by every
// class.
var (
	pools = make([]sync.Pool, len(classSizes))
	boxes = sync.Pool{New: func() any { return new([]byte) }}
)

// Counters for tests and benchmarks.
var gets, puts, drops atomic.Int64

// classFor returns the index of the smallest class holding n bytes, or
// -1 when n exceeds every class.
func classFor(n int) int {
	for i, size := range classSizes {
		if n <= size {
			return i
		}
	}
	return -1
}

// classOf returns the class whose capacity is exactly c, or -1.
func classOf(c int) int {
	for i, size := range classSizes {
		if c == size {
			return i
		}
		if c < size {
			return -1
		}
	}
	return -1
}

// GetRaw returns a buffer of length n whose contents are arbitrary
// (recycled bytes): every user overwrites every byte before it reads
// one — ReadAt staging, wire frames about to be encoded into, a
// sub-chunk the plan's pieces tile. The pool zeroes nothing.
func GetRaw(n int) []byte {
	gets.Add(1)
	i := classFor(n)
	if i < 0 {
		return make([]byte, n)
	}
	box, _ := pools[i].Get().(*[]byte)
	if box == nil {
		return make([]byte, n, classSizes[i])
	}
	b := *box
	*box = nil
	boxes.Put(box)
	return b[:n]
}

// Put returns a dead buffer to its class. Slices whose capacity is not
// exactly a class size (subslices, foreign buffers, nil) are dropped.
// The caller must not touch b afterwards.
func Put(b []byte) {
	i := classOf(cap(b))
	if i < 0 {
		drops.Add(1)
		return
	}
	puts.Add(1)
	box := boxes.Get().(*[]byte)
	*box = b[:cap(b)]
	pools[i].Put(box)
}

// Stats reports cumulative GetRaw, Put, and dropped-Put counts since
// process start.
func Stats() (got, put, dropped int64) {
	return gets.Load(), puts.Load(), drops.Load()
}

// RegisterMetrics exposes the pool's counters through an observability
// registry as live gauges: gets, puts, drops, and the derived live
// count (buffers currently checked out). nil registries are ignored.
func RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Func("bufpool_gets", func() int64 { return gets.Load() })
	r.Func("bufpool_puts", func() int64 { return puts.Load() })
	r.Func("bufpool_drops", func() int64 { return drops.Load() })
	r.Func("bufpool_live", func() int64 { return gets.Load() - puts.Load() })
}
