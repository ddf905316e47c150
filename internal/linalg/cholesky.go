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
// and trailing update are parallel across row chunks. Every element
// nevertheless accumulates its subtractions in exactly the order of the
// textbook unblocked left-looking loop — one product at a time, k ascending
// from 0 — and chunks write disjoint rows, so the factor is bit-identical
// for every worker count and block size (intermediate stores do not change
// IEEE-754 results; each operation rounds to float64 either way).
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
	// is noise.
	grain := n / (workers * 8)
	if grain < 8 {
		grain = 8
	}
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
		// Panel solve: rows below the diagonal block, parallel over rows.
		par.For(workers, n-pe, grain, func(lo, hi int) {
			for i := pe + lo; i < pe+hi; i++ {
				li := l[i*n:]
				for j := p; j < pe; j++ {
					lj := l[j*n:]
					s := li[j]
					for k := p; k < j; k++ {
						s -= li[k] * lj[k]
					}
					li[j] = s * invDiag[j-p]
				}
			}
		})
		// Trailing update: subtract the panel's contribution from the
		// remaining lower triangle (diagonal included), parallel over rows.
		par.For(workers, n-pe, grain, func(lo, hi int) {
			for i := pe + lo; i < pe+hi; i++ {
				li := l[i*n:]
				for j := pe; j <= i; j++ {
					lj := l[j*n:]
					s := li[j]
					for k := p; k < pe; k++ {
						s -= li[k] * lj[k]
					}
					li[j] = s
				}
			}
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
			ridge = scale * math.Pow(10, float64(attempt-10)) // 1e-10·scale upward
		}
		ch, cerr := newCholeskyRidge(m, ridge, workers)
		if cerr == nil {
			return ch, ridge, nil
		}
	}
	return nil, ridge, ErrNotSPD
}
