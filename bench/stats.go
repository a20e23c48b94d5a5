package main

// Exact timing: every latency is kept as one sample in a preallocated
// slice and percentiles are read from the sorted samples, so no bucket
// width hides a change. A tail percentile is reported only when at least
// minBeyond samples lie beyond it.

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported.
const minBeyond = 10

// samples holds exact measurements in one unit.
type samples struct {
	v      []float64
	sorted bool
}

func newSamples(capacity int) *samples {
	return &samples{v: make([]float64, 0, capacity)}
}

func (s *samples) add(x float64) {
	s.v = append(s.v, x)
	s.sorted = false
}

func (s *samples) addDuration(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s *samples) n() int { return len(s.v) }

func (s *samples) sort() []float64 {
	if !s.sorted {
		slices.Sort(s.v)
		s.sorted = true
	}
	return s.v
}

// quantile is the nearest-rank q-quantile, NaN without samples.
func (s *samples) quantile(q float64) float64 {
	v := s.sort()
	if len(v) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[min(max(i, 0), len(v)-1)]
}

// median is the middle sample, or the mean of the two middle samples.
func (s *samples) median() float64 {
	v := s.sort()
	switch n := len(v); {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return v[n/2]
	default:
		return (v[n/2-1] + v[n/2]) / 2
	}
}

func (s *samples) min() float64 { return s.quantile(0) }

// tailQuantiles are the tail percentiles tried, highest first.
var tailQuantiles = []struct {
	q     float64
	label string
}{{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}, {0.75, "p75"}}

// tail returns the highest percentile with at least minBeyond samples
// beyond it; ok is false when even p75 lacks them.
func (s *samples) tail() (label string, value float64, ok bool) {
	n := s.n()
	for _, t := range tailQuantiles {
		if beyond := n - int(math.Ceil(t.q*float64(n))); beyond >= minBeyond {
			return t.label, s.quantile(t.q), true
		}
	}
	return "", 0, false
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind the value
}

// line renders a metric the way every run prints it.
func (m metric) line(workload string) string {
	return fmt.Sprintf("%s %s %.6g %s (n=%d)", workload, m.name, m.value, m.unit, m.n)
}
