package linalg

import (
	"fmt"
	"math"
)

// Rank-k maintenance of a Cholesky factorization. The warm-start training
// path (internal/qp.WarmState) keeps the factor of M = Q + λAᵀA across
// retrains and edits it in place as feedback arrives: a new observation row
// is the rank-1 update M += λw·aaᵀ, and an evicted or merged observation is
// the matching rank-1 downdate. Each edit costs O(n²) against the O(n³/3)
// of refactoring.

// N returns the dimension of the factored matrix.
func (c *Cholesky) N() int { return c.n }

// Clone returns an independent copy of the factorization.
func (c *Cholesky) Clone() *Cholesky {
	l := make([]float64, len(c.l))
	copy(l, c.l)
	return &Cholesky{n: c.n, l: l}
}

// Update applies the rank-1 update L·Lᵀ + v·vᵀ in place in O(n²), one
// Givens rotation per column (LINPACK dchud). v is not modified. The sweep
// is organized row-wise with the rotations applied lazily: the factor is
// stored row-major, so walking each row contiguously (instead of striding
// down columns) keeps the O(n²) pass cache-friendly at the m≈4000 sizes the
// warm-start trainer runs — the arithmetic per element is exactly the
// column sweep's. Unlike the blocked factorization, the rotation recurrence
// does not reproduce the left-looking subtraction order, so an updated
// factor agrees with a fresh factorization of M + v·vᵀ only to rounding,
// not bit-for-bit.
func (c *Cholesky) Update(v []float64) {
	if len(v) != c.n {
		panic(fmt.Sprintf("linalg: Cholesky.Update dimension mismatch: %d vs %d", len(v), c.n))
	}
	n, l := c.n, c.l
	cs := make([]float64, n)
	sn := make([]float64, n)
	for i := 0; i < n; i++ {
		li := l[i*n : i*n+i+1]
		wi := v[i]
		for j := 0; j < i; j++ {
			t := cs[j]*li[j] + sn[j]*wi
			wi = cs[j]*wi - sn[j]*li[j]
			li[j] = t
		}
		r := math.Hypot(li[i], wi)
		cs[i] = li[i] / r
		sn[i] = wi / r
		li[i] = r
	}
}

// Downdate applies the rank-1 downdate L·Lᵀ − v·vᵀ in place in O(n²) via
// hyperbolic rotations, the inverse of Update's Givens sweep. It returns
// ErrNotSPD when the downdated matrix is not positive definite at working
// precision — removing v would lose definiteness — detected up front by the
// forward solve L·a = v requiring ‖a‖ < 1, so the factor is left unchanged
// on error. v is not modified.
func (c *Cholesky) Downdate(v []float64) error {
	if len(v) != c.n {
		panic(fmt.Sprintf("linalg: Cholesky.Downdate dimension mismatch: %d vs %d", len(v), c.n))
	}
	n, l := c.n, c.l
	// Feasibility: M − vvᵀ is PD iff the forward-substitution image of v
	// stays strictly inside the unit ball.
	a := make([]float64, n)
	var norm2 float64
	for i := 0; i < n; i++ {
		s := v[i]
		li := l[i*n:]
		for k := 0; k < i; k++ {
			s -= li[k] * a[k]
		}
		s /= li[i]
		a[i] = s
		norm2 += s * s
	}
	if !(norm2 < 1) || math.IsNaN(norm2) {
		return ErrNotSPD
	}
	// Hyperbolic sweep, row-wise with lazily applied rotations (same
	// cache-locality argument as Update: rows are contiguous in the
	// row-major factor, columns are not).
	cs := make([]float64, n)
	sn := make([]float64, n)
	for i := 0; i < n; i++ {
		li := l[i*n : i*n+i+1]
		wi := v[i]
		for j := 0; j < i; j++ {
			t := (li[j] - sn[j]*wi) / cs[j]
			wi = cs[j]*wi - sn[j]*t
			li[j] = t
		}
		d := li[i]
		r2 := (d - wi) * (d + wi)
		if r2 <= 0 || math.IsNaN(r2) {
			// The global feasibility test passed but a pivot still collapsed
			// at working precision; the sweep has already rewritten earlier
			// rows, so the factor is unspecified and the caller must
			// discard it (the warm path falls back to a full factorization).
			return ErrNotSPD
		}
		r := math.Sqrt(r2)
		cs[i] = r / d
		sn[i] = wi / d
		li[i] = r
	}
	return nil
}
