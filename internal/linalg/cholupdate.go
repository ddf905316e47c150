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

// Update applies the rank-k update L·Lᵀ + Σ_r v_r·v_rᵀ in place in
// O(k·n²), one Givens rotation per column and vector (LINPACK dchud), the
// vectors in the order given. The vectors are not modified.
//
// The sweep is organized row-wise with the rotations applied lazily: the
// factor is stored row-major, so walking each row contiguously (instead of
// striding down columns) keeps the O(n²) pass cache-friendly at the m≈4000
// sizes the warm-start trainer runs. One sweep takes every vector: each row
// applies them in order, up to four interleaved per column (rotateRow4),
// so the row is loaded once per four vectors and their four w recurrences
// run as independent chains. Vector r's rotation at a column reads the
// element vector r−1's rotation just wrote, so every element sees exactly
// the arithmetic of successive single-vector updates, and the factor is
// bit-identical to them. Unlike the blocked factorization, the rotation
// recurrence does not reproduce the left-looking subtraction order, so an
// updated factor agrees with a fresh factorization of the updated matrix
// only to rounding, not bit-for-bit.
func (c *Cholesky) Update(vs ...[]float64) {
	n, l := c.n, c.l
	for _, v := range vs {
		if len(v) != n {
			panic(fmt.Sprintf("linalg: Cholesky.Update dimension mismatch: %d vs %d", len(v), n))
		}
	}
	// rot holds 2n rotation values per vector: a lone vector's cosine and
	// sine by column, and for a group of four, the four pairs by column.
	rot := make([]float64, 2*n*len(vs))
	for i := 0; i < n; i++ {
		li := l[i*n : i*n+i+1]
		r := 0
		for ; r+4 <= len(vs); r += 4 {
			rotateRow4(li, rot[2*n*r:2*n*(r+4)], vs[r][i], vs[r+1][i], vs[r+2][i], vs[r+3][i])
		}
		for ; r < len(vs); r++ {
			rotateRow(li, rot[2*n*r:2*n*(r+1)], vs[r][i])
		}
	}
}

// rotateRow applies one update's rotations of columns 0..i−1 to the row
// li = L[i][0..i], carrying the update's entry w through them, then sets
// the rotation of column i that zeroes w against the diagonal. cs holds
// the update's cosine and sine per column.
func rotateRow(li, cs []float64, w float64) {
	i := len(li) - 1
	cs = cs[:2*len(li)]
	for j := 0; j < i; j++ {
		c, s := cs[2*j], cs[2*j+1]
		t := float64(c*li[j]) + float64(s*w)
		w = float64(c*w) - float64(s*li[j])
		li[j] = t
	}
	r := math.Hypot(li[i], w)
	cs[2*i] = li[i] / r
	cs[2*i+1] = w / r
	li[i] = r
}

// rotateRow4 is rotateRow for four consecutive updates with entries w0..w3:
// at each column the four rotations apply in order, each to the element the
// one before it wrote, and at the diagonal the four new rotations are set in
// order. cs holds, per column, the four updates' cosine and sine pairs.
func rotateRow4(li, cs []float64, w0, w1, w2, w3 float64) {
	i := len(li) - 1
	cs = cs[:8*len(li)]
	for j := 0; j < i; j++ {
		q := cs[8*j : 8*j+8]
		x := li[j]
		t := float64(q[0]*x) + float64(q[1]*w0)
		w0 = float64(q[0]*w0) - float64(q[1]*x)
		x = t
		t = float64(q[2]*x) + float64(q[3]*w1)
		w1 = float64(q[2]*w1) - float64(q[3]*x)
		x = t
		t = float64(q[4]*x) + float64(q[5]*w2)
		w2 = float64(q[4]*w2) - float64(q[5]*x)
		x = t
		t = float64(q[6]*x) + float64(q[7]*w3)
		w3 = float64(q[6]*w3) - float64(q[7]*x)
		li[j] = t
	}
	q := cs[8*i : 8*i+8]
	x := li[i]
	for u, w := range [4]float64{w0, w1, w2, w3} {
		r := math.Hypot(x, w)
		q[2*u] = x / r
		q[2*u+1] = w / r
		x = r
	}
	li[i] = x
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
			s -= float64(li[k] * a[k])
		}
		s /= li[i]
		a[i] = s
		norm2 += float64(s * s)
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
			t := (li[j] - float64(sn[j]*wi)) / cs[j]
			wi = float64(cs[j]*wi) - float64(sn[j]*t)
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
