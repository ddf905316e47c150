package linalg

import (
	"fmt"
	"math"

	"quicksel/internal/par"
)

// choleskyBlock is the panel width of the blocked factorization. 64 columns
// keep a panel row (64×8 bytes) plus the updated row inside L1 while the
// trailing update streams the lower triangle once per panel instead of once
// per column.
const choleskyBlock = 64

// Cholesky holds the lower-triangular factor L of an SPD matrix M = L·Lᵀ.
type Cholesky struct {
	n int
	l []float64 // row-major lower triangle, full n×n storage
}

// NewCholesky factors the symmetric positive-definite matrix m on all
// available cores. It returns ErrNotSPD if a pivot is non-positive at
// working precision. The input is not modified.
func NewCholesky(m *Matrix) (*Cholesky, error) { return NewCholeskyWorkers(m, 0) }

// NewCholeskyWorkers is NewCholesky with an explicit worker count (0 =
// GOMAXPROCS, 1 = sequential).
//
// The algorithm is a blocked right-looking factorization: factor a
// choleskyBlock-wide diagonal block, solve the panel below it, then apply
// the panel's rank-nb update to the trailing lower triangle. The panel solve
// and trailing update are parallel across row chunks, and register-tiled
// within them: the panel solve takes two rows per pass, the trailing update
// 2×3 tiles of elements, so several independent subtraction chains run
// side by side. Every element nevertheless accumulates its subtractions in
// exactly the order of the textbook unblocked left-looking loop — one
// product at a time, k ascending from 0 — and chunks write disjoint rows,
// so the factor is bit-identical for every worker count, block size and
// tile shape (intermediate stores do not change IEEE-754 results; each
// operation rounds to float64 either way).
func NewCholeskyWorkers(m *Matrix, workers int) (*Cholesky, error) {
	return newCholeskyRidge(m, 0, workers)
}

// newCholeskyRidge factors m + ridge·I. The ridge is added to the factor's
// own copy of m, so neither m nor a second n×n matrix is touched.
func newCholeskyRidge(m *Matrix, ridge float64, workers int) (*Cholesky, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %d×%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	l := make([]float64, n*n)
	copy(l, m.Data)
	if ridge != 0 {
		for i := 0; i < n; i++ {
			l[i*n+i] += ridge
		}
	}
	workers = par.Workers(workers)
	// Row-chunk grain for the panel solve and trailing update: fine enough
	// to balance the triangular row costs, coarse enough that chunk claiming
	// is noise, and even, so every chunk but the last holds whole row pairs.
	grain := n / (workers * 8)
	if grain < 8 {
		grain = 8
	}
	grain += grain & 1
	var spdErr error
	for p := 0; p < n; p += choleskyBlock {
		pe := p + choleskyBlock
		if pe > n {
			pe = n
		}
		// Factor the diagonal block l[p:pe, p:pe]. Previous panels already
		// subtracted their contributions (trailing update below), so only
		// within-panel columns k ∈ [p, j) remain — continuing each element's
		// ascending-k subtraction sequence.
		for j := p; j < pe; j++ {
			lj := l[j*n:]
			d := lj[j]
			for k := p; k < j; k++ {
				d -= lj[k] * lj[k]
			}
			if d <= 0 || math.IsNaN(d) {
				spdErr = ErrNotSPD
				break
			}
			d = math.Sqrt(d)
			lj[j] = d
			inv := 1 / d
			for i := j + 1; i < pe; i++ {
				li := l[i*n:]
				s := li[j]
				for k := p; k < j; k++ {
					s -= li[k] * lj[k]
				}
				li[j] = s * inv
			}
		}
		if spdErr != nil {
			break
		}
		if pe == n {
			break
		}
		invDiag := make([]float64, pe-p)
		for j := p; j < pe; j++ {
			invDiag[j-p] = 1 / l[j*n+j]
		}
		par.For(workers, n-pe, grain, func(lo, hi int) {
			panelSolve(l, n, p, pe, invDiag, pe+lo, pe+hi)
		})
		par.For(workers, n-pe, grain, func(lo, hi int) {
			trailingUpdate(l, n, p, pe, pe+lo, pe+hi)
		})
	}
	if spdErr != nil {
		return nil, spdErr
	}
	// Zero the strict upper triangle so the factor is clean.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l[i*n+j] = 0
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// panelSolve solves rows [lo, hi) of the panel below the diagonal block
// [p, pe): l[i][j] = (l[i][j] − Σ_{k∈[p,j)} l[i][k]·l[j][k]) / l[j][j] for
// j ∈ [p, pe), each sum subtracted one product at a time, k ascending. Rows
// go two per pass, so the pair's two subtraction chains overlap; within a
// row the columns stay sequential, since column j reads columns k < j.
func panelSolve(l []float64, n, p, pe int, invDiag []float64, lo, hi int) {
	i := lo
	for ; i+1 < hi; i += 2 {
		x0 := l[i*n+p : i*n+pe]
		x1 := l[(i+1)*n+p : (i+1)*n+pe]
		for j := range x0 {
			s0, s1 := subDot2(x0[j], x1[j], x0[:j], x1[:j], l[(p+j)*n+p:])
			x0[j], x1[j] = s0*invDiag[j], s1*invDiag[j]
		}
	}
	if i < hi {
		x := l[i*n+p : i*n+pe]
		for j := range x {
			x[j] = subDot(x[j], x[:j], l[(p+j)*n+p:]) * invDiag[j]
		}
	}
}

// trailingUpdate subtracts the panel [p, pe)'s contribution from rows
// [lo, hi) of the trailing lower triangle, columns pe through the diagonal:
// l[i][j] −= Σ_{k∈[p,pe)} l[i][k]·l[j][k], one product at a time, k
// ascending. Rows go in pairs, and each pair's shared columns in 2×3 register
// tiles (subDot2x3).
func trailingUpdate(l []float64, n, p, pe, lo, hi int) {
	i := lo
	for ; i+1 < hi; i += 2 {
		r0 := l[i*n : i*n+i+1]
		r1 := l[(i+1)*n : (i+1)*n+i+2]
		x0, x1 := r0[p:pe], r1[p:pe]
		j := pe
		for ; j+2 <= i; j += 3 {
			subDot2x3(r0[j:j+3], r1[j:j+3], x0, x1,
				l[j*n+p:j*n+pe], l[(j+1)*n+p:(j+1)*n+pe], l[(j+2)*n+p:(j+2)*n+pe])
		}
		// The pair's last one or two shared columns, then the second row's
		// diagonal.
		for ; j <= i; j++ {
			r0[j], r1[j] = subDot2(r0[j], r1[j], x0, x1, l[j*n+p:j*n+pe])
		}
		r1[i+1] = subDot(r1[i+1], x1, x1)
	}
	if i < hi {
		r := l[i*n : i*n+i+1]
		for j := pe; j <= i; j++ {
			r[j] = subDot(r[j], r[p:pe], l[j*n+p:j*n+pe])
		}
	}
}

// subDot2x3 is subDot on the 2×3 tile of rows (x0, x1) by rows (y0, y1, y2),
// in place on the accumulators r0[:3] and r1[:3]: the six subtraction
// chains advance together, and each loaded value feeds two or three
// products. Three columns is the widest tile whose loop keeps every value in
// a register on amd64: six accumulators, five loaded values and two copies
// take 13 of the 15 vector registers the Go ABI leaves free, where a 2×4
// tile spills and runs no faster. Inlined into trailingUpdate, the loop
// spilled its counter, so it stays out of line.
//
//go:noinline
func subDot2x3(r0, r1, x0, x1, y0, y1, y2 []float64) {
	x1, y0, y1, y2 = x1[:len(x0)], y0[:len(x0)], y1[:len(x0)], y2[:len(x0)]
	r0, r1 = r0[:3], r1[:3]
	s00, s01, s02 := r0[0], r0[1], r0[2]
	s10, s11, s12 := r1[0], r1[1], r1[2]
	for k, a := range x0 {
		b, c0, c1, c2 := x1[k], y0[k], y1[k], y2[k]
		s00 -= a * c0
		s01 -= a * c1
		s02 -= a * c2
		s10 -= b * c0
		s11 -= b * c1
		s12 -= b * c2
	}
	r0[0], r0[1], r0[2] = s00, s01, s02
	r1[0], r1[1], r1[2] = s10, s11, s12
}

// subDot2 is subDot on two rows against one: it returns s0 − Σ x0·y and
// s1 − Σ x1·y, the two chains advancing together. Like subDot2x3 it stays
// out of line, where the loop keeps its counter in a register.
//
//go:noinline
func subDot2(s0, s1 float64, x0, x1, y []float64) (float64, float64) {
	x1, y = x1[:len(x0)], y[:len(x0)]
	for k, c := range y {
		s0 -= x0[k] * c
		s1 -= x1[k] * c
	}
	return s0, s1
}

// subDot returns s − Σ_k x[k]·y[k], subtracting one product at a time, k
// ascending. y must be at least as long as x.
func subDot(s float64, x, y []float64) float64 {
	y = y[:len(x)]
	for k, a := range x {
		s -= a * y[k]
	}
	return s
}

// Solve returns x such that (L·Lᵀ)·x = b via forward and back substitution.
func (c *Cholesky) Solve(b []float64) []float64 {
	if len(b) != c.n {
		panic(fmt.Sprintf("linalg: Cholesky.Solve dimension mismatch: %d vs %d", len(b), c.n))
	}
	n := c.n
	l := c.l
	// Forward: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		li := l[i*n:]
		for k := 0; k < i; k++ {
			s -= li[k] * y[k]
		}
		y[i] = s / li[i]
	}
	// Backward: Lᵀ·x = y.
	x := y // reuse storage
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	return x
}

// FactorSPD factors the symmetric positive-(semi)definite matrix m,
// applying an escalating diagonal ridge if the bare factorization fails,
// and returns the factor and the ridge that made it succeed. QuickSel's
// system Q + λAᵀA is PSD and occasionally rank-deficient when subpopulation
// boxes coincide; a relative ridge restores definiteness without visibly
// perturbing the weights. The input is not modified. Callers that keep the
// factor warm across solves (internal/qp.WarmState) must re-apply the same
// ridge when they rebuild the system. workers bounds the factorization's
// goroutines (0 = GOMAXPROCS, 1 = sequential).
func FactorSPD(m *Matrix, workers int) (c *Cholesky, ridge float64, err error) {
	if m.Rows != m.Cols {
		return nil, 0, fmt.Errorf("linalg: FactorSPD of non-square %d×%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	if n == 0 {
		return &Cholesky{}, 0, nil
	}
	var trace float64
	for i := 0; i < n; i++ {
		trace += m.At(i, i)
	}
	scale := trace / float64(n)
	if scale <= 0 {
		scale = 1
	}
	for attempt := 0; attempt < 12; attempt++ {
		if attempt > 0 {
			ridge = scale * math.Pow(10, float64(attempt-10)) // 1e-9·scale, then ×10 per attempt
		}
		ch, cerr := newCholeskyRidge(m, ridge, workers)
		if cerr == nil {
			return ch, ridge, nil
		}
	}
	return nil, ridge, ErrNotSPD
}
