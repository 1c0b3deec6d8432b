package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or NaN for none. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or NaN for none. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratioMedian is the paired estimator: the median over iterations of
// ref[i] ÷ op[i], each op timed against the reference op run right
// after it. Pairs with a non-positive time are skipped.
func ratioMedian(ref, op []float64) float64 {
	n := min(len(ref), len(op))
	ratios := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if ref[i] > 0 && op[i] > 0 {
			ratios = append(ratios, ref[i]/op[i])
		}
	}
	return median(ratios)
}

// tailPermille are the upper quantiles a timing may be reported at, in
// thousandths.
var tailPermille = []int{500, 750, 900, 950, 990, 999}

// tailPercent returns the highest percentile of tailPermille that still
// has at least ten of n samples beyond it; 50 when even the median has
// not.
func tailPercent(n int) float64 {
	best := tailPermille[0]
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return float64(best) / 10
}

// interval is a half-open span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the part of parent that no child covers: the parent's
// duration less the union of the children clipped to it. Children may
// overlap one another and stick out of the parent.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered, reach := int64(0), parent.start
	for _, c := range clipped {
		if c.end <= reach {
			continue
		}
		covered += c.end - max(c.start, reach)
		reach = c.end
	}
	return parent.end - parent.start - covered
}
