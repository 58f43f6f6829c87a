package main

import (
	"math"
	"sort"
	"time"
)

// classSamples holds the latencies of one operation class: one operation
// type on one encoding, such as "Q6/local" or "insert-begin/global".
type classSamples map[string][]time.Duration

func (c classSamples) add(class string, d time.Duration) { c[class] = append(c[class], d) }

func (c classSamples) count() int {
	n := 0
	for _, s := range c {
		n += len(s)
	}
	return n
}

// median returns the middle sample (the mean of the two middle samples for
// an even count).
func median(s []time.Duration) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append([]time.Duration(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// geoMeanOfMedians is the geometric mean, in milliseconds, of each class's
// median. Pooling classes whose latencies differ by orders of magnitude
// puts the pooled median in a gap between clusters, where it jumps between
// runs; the per-class medians do not.
func (c classSamples) geoMeanOfMedians() float64 {
	if len(c) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range c {
		sum += math.Log(ms(median(s)))
	}
	return math.Exp(sum / float64(len(c)))
}

// tailLadder lists the percentiles a tail metric may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile is the rung the tail metrics start at. Every workload has
// well over ten samples beyond p95 in a 20-second run. p99, which
// ordered_read would also support, moved up to 22% between runs on a
// shared host: the top 1% of samples is where the host's stalls land.
const tailPercentile = 95

// tail returns the pooled samples' value at the highest ladder percentile,
// starting at start, that has at least ten samples beyond it, with that
// percentile. A fixed start keeps the rung the same between runs; too few
// samples move it down. It returns the maximum and 100 for too few samples.
func (c classSamples) tail(start float64) (float64, float64) {
	var all []time.Duration
	for _, s := range c {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return 0, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	n := len(all)
	for _, p := range tailLadder {
		if p > start {
			continue
		}
		idx := int(math.Ceil(p/100*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if n-1-idx >= 10 {
			return ms(all[idx]), p
		}
	}
	return ms(all[n-1]), 100
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// geoMean is the geometric mean of positive values; zero for none.
func geoMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// ratio returns num/den, or 0 when den is 0: a per-layer count whose layer
// does no such work on a workload reads 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
