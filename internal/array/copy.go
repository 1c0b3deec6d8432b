package array

import (
	"fmt"

	"panda/internal/bufpool"
)

// maxStackRank is the largest number of odometer dimensions handled
// with fixed-size stack arrays. Deeper (rare) shapes fall back to heap
// slices. Rank-4 arrays coalesce to at most 3 odometer dims, so every
// realistic Panda shape stays allocation-free.
const maxStackRank = 4

// CopyRegion copies the elements of sect from src to dst.
//
// src holds the elements of region srcR in row-major order; dst holds
// region dstR likewise. sect must be contained in both. elemSize is the
// byte size of one element. src and dst must not overlap: 16-byte runs
// move by fixed-size assignment, which — unlike copy — makes no promise
// about aliased memory. Every caller copies between two buffers of
// different origin (a wire frame or a fresh pooled buffer on one side,
// an application chunk or a sub-chunk under assembly on the other):
// Extract, core's absorbData, depositPiece and packedFrame, baseline's
// redistribute and deposit, and the pack probes of pandabench and
// bench/.
//
// The kernel coalesces trailing dimensions: whenever sect spans the
// full extent of a dimension in BOTH srcR and dstR, that dimension and
// everything inside it form a single contiguous run in both buffers, so
// it is folded into one memcpy. The remaining outer dimensions are
// walked with an incremental odometer that carries the src and dst byte
// offsets directly — no per-row dot products — and uses stack-allocated
// stride arrays up to maxStackRank odometer dims.
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
	// per-run cost is two adds and a move. A 16-byte run — four 4-byte
	// elements, the one strided width a benchmark workload produces —
	// moves by fixed-size array assignment, a pair of register loads and
	// stores, where copy's call into memmove costs more than the bytes it
	// moves. The conversion is bounds-checked like the slice expression
	// it replaces, but is not a memmove: hence the no-overlap clause of
	// the contract. Another width joins only with an end-to-end workload
	// that has such runs and a `make bench-pack` row at least 1.5x what
	// copy makes of it (DESIGN §9).
	inner := sect.Extent(k - 1)
	sStep, dStep := srcStep[k-1], dstStep[k-1]
	for {
		if runBytes == 16 {
			for i := 0; i < inner; i++ {
				*(*[16]byte)(dst[do:]) = *(*[16]byte)(src[so:])
				so += sStep
				do += dStep
			}
		} else {
			for i := 0; i < inner; i++ {
				copy(dst[do:do+runBytes], src[so:so+runBytes])
				so += sStep
				do += dStep
			}
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

// Extract copies region sect out of a buffer holding srcR into a
// buffer holding exactly sect. The buffer is drawn from bufpool (and
// fully overwritten); hot paths may hand it back with bufpool.Put once
// the bytes are dead, and callers that keep it simply forfeit reuse.
func Extract(src []byte, srcR, sect Region, elemSize int) []byte {
	out := bufpool.GetRaw(int(sect.NumElems() * int64(elemSize)))
	CopyRegion(out, sect, src, srcR, sect, elemSize)
	return out
}
