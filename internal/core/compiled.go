package core

import (
	"math"

	"quicksel/internal/geom"
)

// compiledModel is the immutable serving form of a trained model:
// zero-weight subpopulations pruned, each surviving weight pre-divided by
// its box volume, and the box corners packed into two flat arrays of their
// float64 bit patterns. Estimate reduces to one box intersection and one
// multiply-add per retained subpopulation over contiguous arrays — no
// pointer chasing, no allocation, no division.
//
// The corners are held as bits because every one is a non-negative float
// inside the unit cube (Train makes no other and Restore accepts no other),
// and non-negative floats order exactly as their bit patterns do as int64:
// the scan picks each intersection's corners with integer min and max, a
// compare and a conditional move each, where the float builtins must also
// honour NaN and signed zeros.
//
// A compiledModel is never mutated after compile, so it can be read
// concurrently; the serving registry swaps whole models atomically and this
// is the state those swaps publish.
type compiledModel struct {
	dim int
	// lo and hi hold kernel j's corners at [j*dim, (j+1)*dim), as the
	// int64 bits of float64 values in [+0, 1]; compile turns −0 into +0.
	lo, hi []int64
	wOverV []float64 // weight_j / |G_j| per retained subpopulation
}

// compile builds the serving form from trained subpopulations and weights.
// It returns nil when nothing carries weight (the estimate is then 0).
func compile(subpops *geom.BoxSet, weights []float64) *compiledModel {
	nz := 0
	for _, w := range weights {
		if w != 0 {
			nz++
		}
	}
	if nz == 0 {
		return nil
	}
	d := subpops.Dim()
	c := &compiledModel{
		dim:    d,
		lo:     make([]int64, 0, nz*d),
		hi:     make([]int64, 0, nz*d),
		wOverV: make([]float64, 0, nz),
	}
	for j, w := range weights {
		if w == 0 {
			continue
		}
		for k := j * d; k < (j+1)*d; k++ {
			c.lo = append(c.lo, cornerBits(subpops.Lo[k]))
			c.hi = append(c.hi, cornerBits(subpops.Hi[k]))
		}
		c.wOverV = append(c.wOverV, w/subpops.Volume(j))
	}
	return c
}

// cornerBits returns v's bit pattern as an int64, with −0 taken as +0: a
// −0 corner would sort below every negative query corner, where the float
// max it stands in for treats the two zeros as equal.
func cornerBits(v float64) int64 {
	if v == 0 {
		v = 0
	}
	return int64(math.Float64bits(v))
}

// estimate returns Σ_j (w_j/|G_j|)·|B ∩ G_j| for the query corners. The
// caller clamps the result to [0, 1].
//
// Precondition: no query corner is NaN (Model.Estimate and
// Predicate.Boxes reject one before it gets here); NaN bits would sort
// above or below every kernel corner, where the float scan returns NaN.
//
// Every other query corner needs no clip: a negative one, −0 and −Inf
// are negative int64s and sort below every kernel corner, and one above
// the cube, +Inf too, sorts above every kernel corner, so the integer min
// and max choose the same corners as the float scan, or the same miss,
// at any dimension. The chosen lower corner l is never negative, so h <= l
// in integer order exactly when the float side h − l is <= 0: a negative h
// lies below l in both orders, and distinct non-negative floats never
// subtract to zero. Over the dimensions in ascending order the scan
// therefore exits at the first empty side, multiplies the float
// differences of the chosen corners, and sums the kernels in order, as the
// float scan over geom.BoxSet.CornersIntersectionVolume does: every
// estimate is bit-identical to that scan's.
func (c *compiledModel) estimate(lo, hi []float64) float64 {
	d := c.dim
	lo, hi = lo[:d], hi[:d]
	var est float64
	for j, wv := range c.wOverV {
		klo, khi := c.lo[j*d:][:d], c.hi[j*d:][:d]
		v := 1.0
		for k, l := range klo {
			l = max(l, int64(math.Float64bits(lo[k])))
			h := min(khi[k], int64(math.Float64bits(hi[k])))
			if h <= l {
				v = 0
				break
			}
			v *= math.Float64frombits(uint64(h)) - math.Float64frombits(uint64(l))
		}
		est += wv * v
	}
	return est
}
