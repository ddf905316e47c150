package core

import (
	"math"

	"quicksel/internal/cpu"
	"quicksel/internal/geom"
)

// lanes is the number of kernels the compiled layout interleaves: four
// int64 corners fill one 256-bit AVX2 register.
const lanes = 4

// compiledModel is the immutable serving form of a trained model:
// zero-weight subpopulations pruned, each surviving weight pre-divided by
// its box volume, and the box corners packed into two flat arrays of their
// float64 bit patterns. Estimate reduces to one box intersection and one
// multiply-add per retained subpopulation over contiguous arrays — no
// pointer chasing, no allocation, no division.
//
// The retained kernels are stored in groups of four lanes: the corners of
// group g's lane t in dimension k sit at (g*dim+k)*4+t, so one 32-byte load
// brings one dimension of four kernels. The lanes are padded to a multiple
// of four with empty kernels, all of whose corners are +0 and whose weight
// is 0.
//
// The corners are held as bits because every one is a non-negative float
// inside the unit cube (Train makes no other and Restore accepts no other),
// and non-negative floats order exactly as their bit patterns do as int64:
// the scan picks each intersection's corners with integer min and max, a
// compare and a select each, where the float builtins must also honour NaN
// and signed zeros.
//
// A compiledModel is never mutated after compile, so it can be read
// concurrently; the serving registry swaps whole models atomically and this
// is the state those swaps publish.
type compiledModel struct {
	dim int
	// lo and hi hold the corners of group g, dimension k, lane t at
	// (g*dim+k)*4+t, as the int64 bits of float64 values in [+0, 1];
	// compile turns −0 into +0.
	lo, hi []int64
	// wOverV holds weight_j / |G_j| per lane, 0 on the padding lanes; its
	// length, a multiple of four, is the number of lanes.
	wOverV []float64
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
	n := (nz + lanes - 1) / lanes * lanes
	c := &compiledModel{
		dim:    d,
		lo:     make([]int64, n*d),
		hi:     make([]int64, n*d),
		wOverV: make([]float64, n),
	}
	j := 0 // the next lane
	for i, w := range weights {
		if w == 0 {
			continue
		}
		at := j/lanes*lanes*d + j%lanes
		for k := 0; k < d; k++ {
			c.lo[at+k*lanes] = cornerBits(subpops.Lo[i*d+k])
			c.hi[at+k*lanes] = cornerBits(subpops.Hi[i*d+k])
		}
		c.wOverV[j] = w / subpops.Volume(i)
		j++
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
// caller clamps the result to [0, 1]. It runs estimateAVX2 where the CPU
// and OS support AVX2, and estimateGo, its pure-Go twin over the same
// layout, everywhere else; the two return the same bits.
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
// subtract to zero.
//
// The scan takes no early exit. A kept side is h − l, positive and finite
// (0 <= l < h <= 1); an empty side zeroes both chosen corners, so it is
// +0 − +0 = +0. A lane multiplies its sides over the dimensions in
// ascending order: where no side is empty these are the float scan's
// factors in the float scan's order, and where the float scan stops at an
// empty side and takes 0, the lane's product is +0. Zeroing both corners,
// not clamping one to the other, matters: with a query hi of −Inf,
// l = min(l, h) would make h − l subtract −Inf from −Inf and give NaN.
// Each lane's product is weighted and added to the sum alone, in kernel
// order, as the float scan over geom.BoxSet.CornersIntersectionVolume adds
// its terms; w·(+0) leaves the sum as it was, because the sum starts at +0
// and is never −0, and every query misses the padding lanes. Every
// estimate is therefore bit-identical to that scan's.
func (c *compiledModel) estimate(lo, hi []float64) float64 {
	if cpu.AVX2() {
		return c.estimateAVX2(lo, hi)
	}
	return c.estimateGo(lo, hi)
}

// estimateGo is the pure-Go scan of the four-lane layout: four named
// products per group, one per lane, each side zeroed when empty. Each
// weighted product is converted to float64 before it is added, so no
// target fuses the multiply into the add.
func (c *compiledModel) estimateGo(lo, hi []float64) float64 {
	d := c.dim
	lo, hi = lo[:d], hi[:d]
	klo, khi := c.lo, c.hi
	var est float64
	at := 0
	for g := 0; g+lanes <= len(c.wOverV); g += lanes {
		p0, p1, p2, p3 := 1.0, 1.0, 1.0, 1.0
		for k := range lo {
			ql, qh := int64(math.Float64bits(lo[k])), int64(math.Float64bits(hi[k]))
			l, h := (*[lanes]int64)(klo[at:]), (*[lanes]int64)(khi[at:])
			p0 *= side(l[0], h[0], ql, qh)
			p1 *= side(l[1], h[1], ql, qh)
			p2 *= side(l[2], h[2], ql, qh)
			p3 *= side(l[3], h[3], ql, qh)
			at += lanes
		}
		w := (*[lanes]float64)(c.wOverV[g:])
		est += float64(w[0] * p0)
		est += float64(w[1] * p1)
		est += float64(w[2] * p2)
		est += float64(w[3] * p3)
	}
	return est
}

// side returns the length of a kernel side [kl, kh) intersected with the
// query side [ql, qh), all as int64 bits: the float difference of the
// chosen corners, or +0 when the intersection is empty. Zeroing the corners
// compiles to conditional moves, where returning 0 early would branch and
// mispredict on kernels that a query half meets.
func side(kl, kh, ql, qh int64) float64 {
	l, h := max(kl, ql), min(kh, qh)
	if h <= l {
		l, h = 0, 0
	}
	return math.Float64frombits(uint64(h)) - math.Float64frombits(uint64(l))
}
