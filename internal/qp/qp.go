// Package qp implements the two quadratic-program solvers the paper
// compares in Figure 6 and Section 5.4:
//
//   - Analytic: QuickSel's closed form w* = (Q + λAᵀA)⁻¹ λAᵀs (Problem 3),
//     obtained by moving the consistency constraints Aw = s into the
//     objective as a penalty and relaxing w ≥ 0.
//   - Iterative: a projected-gradient method that solves the same penalized
//     objective while enforcing w ≥ 0, standing in for the off-the-shelf
//     iterative QP library (cvxopt) of the paper's baseline.
//
// Both minimize ℓ(w) = wᵀQw + λ‖Aw − s‖² over the subpopulation weights w.
package qp

import (
	"errors"
	"fmt"
	"math"

	"quicksel/internal/linalg"
)

// DefaultLambda is the penalty weight the paper prescribes (λ = 10⁶,
// Problem 3).
const DefaultLambda = 1e6

// Problem bundles the inputs of QuickSel's QP: the m×m subpopulation
// interaction matrix Q, the n×m constraint matrix A, and the observed
// selectivities s (length n).
type Problem struct {
	Q      *linalg.Matrix
	A      *linalg.Matrix
	S      []float64
	Lambda float64 // penalty weight; 0 means DefaultLambda
	// Workers bounds the goroutines of the parallel kernels (Gram product,
	// Cholesky panels): 0 = GOMAXPROCS, 1 = sequential. The solution is
	// bit-identical for every worker count.
	Workers int
}

// Validate checks dimensional consistency of the problem.
func (p *Problem) Validate() error {
	if p.Q == nil || p.A == nil {
		return errors.New("qp: nil Q or A")
	}
	if p.Q.Rows != p.Q.Cols {
		return fmt.Errorf("qp: Q must be square, got %d×%d", p.Q.Rows, p.Q.Cols)
	}
	if p.A.Cols != p.Q.Cols {
		return fmt.Errorf("qp: A has %d cols, want %d", p.A.Cols, p.Q.Cols)
	}
	if len(p.S) != p.A.Rows {
		return fmt.Errorf("qp: s has %d entries, want %d", len(p.S), p.A.Rows)
	}
	if p.Lambda < 0 {
		return fmt.Errorf("qp: negative lambda %g", p.Lambda)
	}
	return nil
}

func (p *Problem) lambda() float64 {
	if p.Lambda == 0 {
		return DefaultLambda
	}
	return p.Lambda
}

// assemble forms M = Q + λAᵀA and rhs = λAᵀs.
func (p *Problem) assemble() (*linalg.Matrix, []float64) {
	lam := p.lambda()
	m := p.Q.Clone()
	p.A.AddScaledGramWorkers(m, lam, p.Workers)
	rhs := p.A.TransposeMulVec(p.S)
	linalg.Scale(lam, rhs)
	return m, rhs
}

// SolveAnalytic computes the closed-form solution of Problem 3 with one SPD
// solve. This is QuickSel's production path: constant number of operations,
// no iteration, no data-dependent convergence behaviour (§4.2). It also
// returns the warm state of the factorization it made, which a caller that
// retrains incrementally keeps and any other caller drops.
func SolveAnalytic(p *Problem) ([]float64, *WarmState, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	m, rhs := p.assemble()
	chol, ridge, err := linalg.FactorSPD(m, p.Workers)
	if err != nil {
		return nil, nil, fmt.Errorf("qp: analytic solve: %w", err)
	}
	return chol.Solve(rhs), &WarmState{chol: chol, rhs: rhs, lambda: p.lambda(), ridge: ridge}, nil
}

// IterativeOptions tunes SolveIterative.
type IterativeOptions struct {
	MaxIters int     // iteration cap; 0 means 5000
	Tol      float64 // relative gradient-step tolerance; 0 means 1e-8
	Project  bool    // enforce w >= 0 (the standard-QP positivity constraint)
}

// IterativeResult reports the iterative solver's outcome.
type IterativeResult struct {
	W         []float64
	Iters     int
	Converged bool
}

// SolveIterative minimizes the penalized objective by accelerated projected
// gradient descent (FISTA) with a fixed step 1/L, where L upper-bounds the
// spectral norm of M = Q + λAᵀA via power iteration. It reproduces the
// behaviour class of the paper's "Standard QP" baseline: per-iteration cost
// O(m²) and an iteration count that grows with problem size and
// conditioning (Figure 6). Acceleration keeps the baseline competitive in
// solution quality with the off-the-shelf library the paper used; it does
// not change the asymptotics the figure demonstrates.
func SolveIterative(p *Problem, opts IterativeOptions) (*IterativeResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxIters == 0 {
		opts.MaxIters = 5000
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-8
	}
	m, rhs := p.assemble()
	n := m.Rows
	if n == 0 {
		return &IterativeResult{Converged: true}, nil
	}

	// Lipschitz constant of the gradient = 2·λ_max(M), estimated by a few
	// rounds of power iteration.
	l := powerIteration(m, 30)
	if l <= 0 {
		l = 1
	}
	step := 1 / (2 * l)

	w := make([]float64, n)    // current iterate
	prev := make([]float64, n) // previous iterate
	y := make([]float64, n)    // extrapolated point
	grad := make([]float64, n)
	tMom := 1.0
	iters := 0
	for ; iters < opts.MaxIters; iters++ {
		// grad = 2(My - rhs) at the extrapolated point.
		my := m.MulVec(y)
		var gnorm, wnorm float64
		for i := range grad {
			grad[i] = 2 * (my[i] - rhs[i])
			gnorm += float64(grad[i] * grad[i])
			wnorm += float64(w[i] * w[i])
		}
		copy(prev, w)
		moved := false
		for i := range w {
			next := y[i] - float64(step*grad[i])
			if opts.Project && next < 0 {
				next = 0
			}
			if next != w[i] {
				moved = true
			}
			w[i] = next
		}
		if !moved || math.Sqrt(gnorm)*step <= opts.Tol*(1+math.Sqrt(wnorm)) {
			return &IterativeResult{W: w, Iters: iters + 1, Converged: true}, nil
		}
		// Nesterov momentum with restart on non-monotone progress.
		tNext := (1 + math.Sqrt(1+float64(4*tMom*tMom))) / 2
		beta := (tMom - 1) / tNext
		var dot float64
		for i := range w {
			dot += float64((w[i] - prev[i]) * (prev[i] - y[i]))
		}
		if dot > 0 { // momentum points uphill: restart
			tNext = 1
			beta = 0
		}
		for i := range y {
			y[i] = w[i] + float64(beta*(w[i]-prev[i]))
		}
		tMom = tNext
	}
	return &IterativeResult{W: w, Iters: iters, Converged: false}, nil
}

// powerIteration estimates the largest eigenvalue of the symmetric matrix m.
func powerIteration(m *linalg.Matrix, rounds int) float64 {
	n := m.Rows
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
	}
	var lambda float64
	for r := 0; r < rounds; r++ {
		mv := m.MulVec(v)
		norm := linalg.Norm2(mv)
		if norm == 0 {
			return 0
		}
		lambda = norm
		for i := range v {
			v[i] = mv[i] / norm
		}
	}
	return lambda
}
