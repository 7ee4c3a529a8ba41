package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 read off fewer than 1000 samples would be the maximum of a
// handful of points, not a percentile.
const minBeyond = 10

// Dist is a sorted sample set in one unit.
type Dist struct {
	sorted []float64
}

// NewDist sorts a copy of samples.
func NewDist(samples []float64) Dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Dist{sorted: s}
}

// DurDist converts durations to a Dist in the given unit.
func DurDist(ds []time.Duration, unit time.Duration) Dist {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = float64(d) / float64(unit)
	}
	return NewDist(s)
}

// N is the sample count.
func (d Dist) N() int { return len(d.sorted) }

// Enough reports whether n samples leave at least minBeyond beyond
// quantile q.
func Enough(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// Quantile returns the nearest-rank quantile q in [0,1], or NaN for an
// empty set.
func (d Dist) Quantile(q float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return d.sorted[i]
}

// Median is Quantile(0.5).
func (d Dist) Median() float64 { return d.Quantile(0.5) }

// median of an unsorted slice, averaging the middle pair of an even
// count (NaN when empty).
func median(vs []float64) float64 {
	d := NewDist(vs)
	n := d.N()
	if n == 0 {
		return math.NaN()
	}
	return (d.sorted[(n-1)/2] + d.sorted[n/2]) / 2
}

// minSliceSamples is the smallest latency slice: enough samples that
// ten lie beyond its p99.
const minSliceSamples = 1000

// sliceWindow splits the samples completed inside [start, end) into
// consecutive slices of whole seconds, each long enough to hold about
// minPer samples (one slice when the window is shorter than that).
// Figures reported as the median over slices shrug off a stall that
// lands in one second, which a whole-window figure would absorb.
func sliceWindow(samples []sample, start, end time.Time, minPer int) [][]sample {
	secs := int(end.Sub(start) / time.Second)
	if secs < 1 {
		secs = 1
	}
	in := 0
	for _, s := range samples {
		if !s.at.Before(start) && s.at.Before(end) {
			in++
		}
	}
	perSec := max(in/secs, 1)
	l := min(max((minPer+perSec-1)/perSec, 1), secs)
	n := secs / l
	out := make([][]sample, n)
	for _, s := range samples {
		i := int(s.at.Sub(start) / (time.Duration(l) * time.Second))
		if s.at.Before(start) || i >= n {
			continue
		}
		out[i] = append(out[i], s)
	}
	return out
}

// sliceLatency is the median over slices of each slice's quantile q,
// in milliseconds.
func sliceLatency(slices [][]sample, q float64) float64 {
	var vs []float64
	for _, sl := range slices {
		ds := make([]time.Duration, len(sl))
		for i, s := range sl {
			ds[i] = s.lat
		}
		vs = append(vs, DurDist(ds, time.Millisecond).Quantile(q))
	}
	return median(vs)
}

// objs sums the objects a slice's operations carried.
func objs(sl []sample) float64 {
	var n float64
	for _, s := range sl {
		n += float64(s.objs)
	}
	return n
}
