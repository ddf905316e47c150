// Package stats implements the error metrics of the paper's evaluation
// (§5.1): relative error with an ε guard against near-zero true
// selectivities, absolute error, and summary helpers used by the
// experiment drivers.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Epsilon is the guard the paper uses in the relative-error denominator
// ("we used ε=0.001").
const Epsilon = 0.001

// RelativeError returns |true−est| / max(true, ε) as a fraction (not a
// percentage), matching §5.1's metric.
func RelativeError(trueSel, estSel float64) float64 {
	den := trueSel
	if den < Epsilon {
		den = Epsilon
	}
	return math.Abs(trueSel-estSel) / den
}

// AbsoluteError returns |true−est| (Table 3b's metric).
func AbsoluteError(trueSel, estSel float64) float64 {
	return math.Abs(trueSel - estSel)
}

// Summary aggregates a stream of per-query errors.
type Summary struct {
	n          int
	sum        float64
	sumSquares float64
	max        float64
	values     []float64
}

// Add records one error value.
func (s *Summary) Add(v float64) {
	s.n++
	s.sum += v
	s.sumSquares += v * v
	if v > s.max {
		s.max = v
	}
	s.values = append(s.values, v)
}

// N returns the number of recorded values.
func (s *Summary) N() int { return s.n }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Max returns the largest recorded value.
func (s *Summary) Max() float64 { return s.max }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by nearest-rank on
// the sorted values; 0 for an empty summary.
func (s *Summary) Percentile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	sorted := make([]float64, len(s.values))
	copy(sorted, s.values)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(s.n))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// String renders the summary for experiment output.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f p50=%.4f p95=%.4f max=%.4f",
		s.n, s.Mean(), s.Percentile(50), s.Percentile(95), s.max)
}
