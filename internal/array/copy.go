package array

import (
	"fmt"
	"sync"
	"sync/atomic"

	"panda/internal/bufpool"
)

// maxStackRank is the largest number of odometer dimensions handled
// with fixed-size stack arrays. Deeper (rare) shapes fall back to heap
// slices. Rank-4 arrays coalesce to at most 3 odometer dims, so every
// realistic Panda shape stays allocation-free.
const maxStackRank = 4

// packParallelMin is the smallest total copy size worth splitting
// across PackWorkers goroutines; below it, goroutine hand-off costs
// more than the copy.
const packParallelMin = 1 << 20

// CopyRegion copies the elements of sect from src to dst.
//
// src holds the elements of region srcR in row-major order; dst holds
// region dstR likewise. sect must be contained in both. elemSize is the
// byte size of one element.
//
// The kernel coalesces trailing dimensions: whenever sect spans the
// full extent of a dimension in BOTH srcR and dstR, that dimension and
// everything inside it form a single contiguous run in both buffers, so
// it is folded into one memcpy. The remaining outer dimensions are
// walked with an incremental odometer that carries the src and dst byte
// offsets directly — no per-row dot products — and uses stack-allocated
// stride arrays up to maxStackRank odometer dims. Copies whose total
// size crosses packParallelMin may be split across the PackWorkers pool
// (see SetPackWorkers); the default is single-threaded.
//
// This is the primitive behind every gather, scatter, and
// reorganization in Panda: a client assembling a requested sub-chunk
// from its memory chunk, a server scattering a sub-chunk into per-client
// pieces, and schema-to-schema rearrangement are all CopyRegion calls
// with different region pairs.
func CopyRegion(dst []byte, dstR Region, src []byte, srcR Region, sect Region, elemSize int) {
	rank := sect.Rank()
	if dstR.Rank() != rank || srcR.Rank() != rank {
		panic("array: rank mismatch in CopyRegion")
	}
	if sect.IsEmpty() {
		return
	}
	if !srcR.Contains(sect) || !dstR.Contains(sect) {
		panic(fmt.Sprintf("array: section %v not contained in src %v / dst %v", sect, srcR, dstR))
	}
	if int64(len(src)) < srcR.NumElems()*int64(elemSize) {
		panic("array: src buffer too small")
	}
	if int64(len(dst)) < dstR.NumElems()*int64(elemSize) {
		panic("array: dst buffer too small")
	}
	copyRegion(dst, dstR, src, srcR, sect, elemSize, int(atomic.LoadInt32(&packWorkers)))
}

// copyRegion is the validated kernel. workers > 1 permits splitting the
// copy across the pack pool; recursive sub-copies pass 1.
func copyRegion(dst []byte, dstR Region, src []byte, srcR Region, sect Region, elemSize int, workers int) {
	rank := sect.Rank()

	// Coalesce: find the smallest k such that every dimension in
	// (k, rank) is spanned fully by sect in both buffers. Then for any
	// fixed choice of the outer coordinates, the elements of sect over
	// dims [k, rank) are one contiguous run in src AND in dst.
	k := rank - 1
	for k > 0 && sect.Extent(k) == srcR.Extent(k) && sect.Extent(k) == dstR.Extent(k) {
		k--
	}
	runBytes := int64(elemSize)
	for d := k; d < rank; d++ {
		runBytes *= int64(sect.Extent(d))
	}

	if workers > 1 && k > 0 && sect.NumElems()*int64(elemSize) >= packParallelMin {
		if copyParallel(dst, dstR, src, srcR, sect, elemSize, k, workers) {
			return
		}
	}

	// Byte strides of the odometer dims [0, k) in each buffer, plus the
	// byte offset of sect.Lo, computed in one innermost-out sweep.
	var srcStepA, dstStepA [maxStackRank]int64
	var cntA [maxStackRank]int
	var srcStep, dstStep []int64
	var cnt []int
	if k <= maxStackRank {
		srcStep, dstStep, cnt = srcStepA[:k], dstStepA[:k], cntA[:k]
	} else {
		srcStep = make([]int64, k)
		dstStep = make([]int64, k)
		cnt = make([]int, k)
	}
	sacc, dacc := int64(elemSize), int64(elemSize)
	var so, do int64
	for d := rank - 1; d >= 0; d-- {
		so += int64(sect.Lo[d]-srcR.Lo[d]) * sacc
		do += int64(sect.Lo[d]-dstR.Lo[d]) * dacc
		if d < k {
			srcStep[d] = sacc
			dstStep[d] = dacc
		}
		sacc *= int64(srcR.Extent(d))
		dacc *= int64(dstR.Extent(d))
	}

	if k == 0 {
		copy(dst[do:do+runBytes], src[so:so+runBytes])
		return
	}

	// Odometer over dims [0, k): offsets advance incrementally — add the
	// dim's stride on increment, subtract the full span on wrap. The
	// innermost odometer dim is hoisted into a counted loop so the
	// per-run cost is two adds and a copy.
	inner := sect.Extent(k - 1)
	sStep, dStep := srcStep[k-1], dstStep[k-1]
	for {
		for i := 0; i < inner; i++ {
			copy(dst[do:do+runBytes], src[so:so+runBytes])
			so += sStep
			do += dStep
		}
		so -= int64(inner) * sStep
		do -= int64(inner) * dStep
		d := k - 2
		for d >= 0 {
			cnt[d]++
			so += srcStep[d]
			do += dstStep[d]
			if cnt[d] < sect.Extent(d) {
				break
			}
			cnt[d] = 0
			so -= int64(sect.Extent(d)) * srcStep[d]
			do -= int64(sect.Extent(d)) * dstStep[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}

// copyParallel splits sect along its outermost multi-element odometer
// dimension and fans the slabs out over the pack pool. Slabs partition
// sect, so their dst runs are disjoint; src is only read. Reports false
// when no dimension in [0, k) can be split.
func copyParallel(dst []byte, dstR Region, src []byte, srcR Region, sect Region, elemSize, k, workers int) bool {
	j := -1
	for d := 0; d < k; d++ {
		if sect.Extent(d) > 1 {
			j = d
			break
		}
	}
	if j < 0 {
		return false
	}
	ext := sect.Extent(j)
	if workers > ext {
		workers = ext
	}
	lo := sect.Lo[j]
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		sub := Region{Lo: append([]int(nil), sect.Lo...), Hi: append([]int(nil), sect.Hi...)}
		sub.Lo[j] = lo + ext*i/workers
		sub.Hi[j] = lo + ext*(i+1)/workers
		if i == workers-1 {
			// The caller is a worker too: run the last slab inline.
			copyRegion(dst, dstR, src, srcR, sub, elemSize, 1)
			continue
		}
		wg.Add(1)
		f := func() {
			defer wg.Done()
			copyRegion(dst, dstR, src, srcR, sub, elemSize, 1)
		}
		select {
		case packCh <- f:
		default:
			f() // pool saturated — do it ourselves rather than block
		}
	}
	wg.Wait()
	return true
}

// The pack pool: long-lived worker goroutines shared by every
// CopyRegion call in the process. Workers are pure CPU — they touch no
// clock, channel into the protocol, or I/O — so enabling them never
// perturbs virtual-time simulations.
var (
	packWorkers int32 // atomic: configured parallelism (<=1 means serial)
	packMu      sync.Mutex
	packCh      chan func()
	packSpawned int
)

// SetPackWorkers configures how many goroutines one large strided
// CopyRegion may use. n <= 1 restores the serial default. The setting
// is process-wide; the pool grows on demand and workers live for the
// life of the process. Small copies (< packParallelMin bytes) always
// stay on the calling goroutine.
func SetPackWorkers(n int) {
	if n < 1 {
		n = 1
	}
	packMu.Lock()
	if packCh == nil {
		packCh = make(chan func(), 64)
	}
	for packSpawned < n-1 {
		packSpawned++
		go func() {
			for f := range packCh {
				f()
			}
		}()
	}
	packMu.Unlock()
	atomic.StoreInt32(&packWorkers, int32(n))
}

// strides returns row-major element strides for a buffer shaped like r.
func strides(r Region) []int64 {
	rank := r.Rank()
	st := make([]int64, rank)
	acc := int64(1)
	for d := rank - 1; d >= 0; d-- {
		st[d] = acc
		acc *= int64(r.Extent(d))
	}
	return st
}

// offsetOf returns the row-major element offset of point pt within
// region r given precomputed strides.
func offsetOf(pt []int, r Region, st []int64) int64 {
	off := int64(0)
	for d := range pt {
		off += int64(pt[d]-r.Lo[d]) * st[d]
	}
	return off
}

// Extract copies region sect out of a buffer holding srcR into a
// buffer holding exactly sect. The buffer is drawn from bufpool (and
// fully overwritten); hot paths may hand it back with bufpool.Put once
// the bytes are dead, and callers that keep it simply forfeit reuse.
func Extract(src []byte, srcR, sect Region, elemSize int) []byte {
	out := bufpool.GetRaw(int(sect.NumElems() * int64(elemSize)))
	CopyRegion(out, sect, src, srcR, sect, elemSize)
	return out
}

// Deposit copies a buffer holding exactly sect into the right place of
// a buffer holding dstR.
func Deposit(dst []byte, dstR Region, data []byte, sect Region, elemSize int) {
	CopyRegion(dst, dstR, data, sect, sect, elemSize)
}
