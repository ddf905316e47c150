package qp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"quicksel/internal/linalg"
)

// tinyProblem builds a 2-subpopulation, 1-constraint instance with a known
// solution structure: two disjoint unit-volume boxes, one observation that
// covers only the first.
func tinyProblem() *Problem {
	// Q = diag(1/|G1|, 1/|G2|) with |G|=0.5 → diag(2,2); no overlap term.
	q := linalg.FromRows([][]float64{{2, 0}, {0, 2}})
	// Row 0: default query covers both fully (A_0j = 1). Row 1: predicate
	// covers only G1.
	a := linalg.FromRows([][]float64{{1, 1}, {1, 0}})
	return &Problem{Q: q, A: a, S: []float64{1, 0.3}}
}

func TestValidate(t *testing.T) {
	p := tinyProblem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Problem{Q: p.Q, A: p.A, S: []float64{1}}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for wrong s length")
	}
	bad2 := &Problem{Q: linalg.NewMatrix(2, 3), A: p.A, S: p.S}
	if err := bad2.Validate(); err == nil {
		t.Error("expected error for non-square Q")
	}
	bad3 := &Problem{Q: p.Q, A: linalg.NewMatrix(2, 3), S: p.S}
	if err := bad3.Validate(); err == nil {
		t.Error("expected error for A/Q mismatch")
	}
	bad4 := &Problem{Q: p.Q, A: p.A, S: p.S, Lambda: -1}
	if err := bad4.Validate(); err == nil {
		t.Error("expected error for negative lambda")
	}
	var nilp Problem
	if err := nilp.Validate(); err == nil {
		t.Error("expected error for nil matrices")
	}
}

func TestSolveAnalyticSatisfiesConstraints(t *testing.T) {
	p := tinyProblem()
	w, _, err := SolveAnalytic(p)
	if err != nil {
		t.Fatal(err)
	}
	aw := p.A.MulVec(w)
	// With λ=1e6 the constraints should hold to ~1e-5.
	if math.Abs(aw[0]-1) > 1e-4 {
		t.Errorf("normalization: Aw[0] = %g, want 1", aw[0])
	}
	if math.Abs(aw[1]-0.3) > 1e-4 {
		t.Errorf("observation: Aw[1] = %g, want 0.3", aw[1])
	}
	// Expected weights: w1 = 0.3 (covers the observed predicate), w2 = 0.7.
	if math.Abs(w[0]-0.3) > 1e-3 || math.Abs(w[1]-0.7) > 1e-3 {
		t.Errorf("w = %v, want ≈[0.3 0.7]", w)
	}
}

func TestSolveIterativeMatchesAnalytic(t *testing.T) {
	p := tinyProblem()
	wa, _, err := SolveAnalytic(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveIterative(p, IterativeOptions{MaxIters: 200000, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("iterative solver failed to converge in %d iters", res.Iters)
	}
	for i := range wa {
		if math.Abs(wa[i]-res.W[i]) > 1e-3 {
			t.Errorf("w[%d]: analytic %g vs iterative %g", i, wa[i], res.W[i])
		}
	}
}

func TestSolveIterativeProjection(t *testing.T) {
	// Force a negative unconstrained solution: an observation of selectivity
	// zero over a box that overlaps a high-weight region tends to push
	// weights negative; projection must keep them at zero.
	q := linalg.FromRows([][]float64{{2, 1}, {1, 2}})
	a := linalg.FromRows([][]float64{{1, 1}, {1, 0.9}})
	p := &Problem{Q: q, A: a, S: []float64{1, 0}}
	res, err := SolveIterative(p, IterativeOptions{Project: true, MaxIters: 100000})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range res.W {
		if w < 0 {
			t.Errorf("projected weight w[%d] = %g is negative", i, w)
		}
	}
}

func TestSolveEmptyProblem(t *testing.T) {
	p := &Problem{Q: linalg.NewMatrix(0, 0), A: linalg.NewMatrix(0, 0), S: nil}
	w, _, err := SolveAnalytic(p)
	if err != nil || len(w) != 0 {
		t.Errorf("empty analytic: %v, %v", w, err)
	}
	res, err := SolveIterative(p, IterativeOptions{})
	if err != nil || !res.Converged {
		t.Errorf("empty iterative: %+v, %v", res, err)
	}
}

func TestObjectiveDecreasesAtSolution(t *testing.T) {
	p := tinyProblem()
	w, _, err := SolveAnalytic(p)
	if err != nil {
		t.Fatal(err)
	}
	at := Objective(p, w)
	// Perturbations must not improve the objective (local optimality of the
	// unconstrained penalized problem).
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 50; k++ {
		pert := make([]float64, len(w))
		for i := range pert {
			pert[i] = w[i] + 0.01*rng.NormFloat64()
		}
		if Objective(p, pert) < at-1e-9 {
			t.Fatalf("perturbation improved objective: %g < %g", Objective(p, pert), at)
		}
	}
}

// randomProblem builds a feasible random instance: boxes on a line with
// random overlap against random observations, so Q is PSD by construction.
func randomProblem(rng *rand.Rand, m, n int) *Problem {
	// Subpopulation intervals on [0,1).
	type iv struct{ lo, hi float64 }
	gs := make([]iv, m)
	for i := range gs {
		a, b := rng.Float64(), rng.Float64()
		if a > b {
			a, b = b, a
		}
		if b-a < 0.01 {
			b = a + 0.01
		}
		gs[i] = iv{a, b}
	}
	inter := func(x, y iv) float64 {
		lo, hi := math.Max(x.lo, y.lo), math.Min(x.hi, y.hi)
		if hi <= lo {
			return 0
		}
		return hi - lo
	}
	q := linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			q.Set(i, j, inter(gs[i], gs[j])/((gs[i].hi-gs[i].lo)*(gs[j].hi-gs[j].lo)))
		}
	}
	a := linalg.NewMatrix(n, m)
	s := make([]float64, n)
	for i := 0; i < n; i++ {
		lo, hi := rng.Float64(), rng.Float64()
		if lo > hi {
			lo, hi = hi, lo
		}
		b := iv{lo, hi}
		for j := 0; j < m; j++ {
			a.Set(i, j, inter(b, gs[j])/(gs[j].hi-gs[j].lo))
		}
		s[i] = rng.Float64()
	}
	return &Problem{Q: q, A: a, S: s, Lambda: 1e4}
}

// Property: the analytic solution is a stationary point — its objective is
// no worse than that of the iterative solver run to tight tolerance.
func TestPropertyAnalyticOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 2+rng.Intn(6), 1+rng.Intn(4))
		wa, _, err := SolveAnalytic(p)
		if err != nil {
			return false
		}
		res, err := SolveIterative(p, IterativeOptions{MaxIters: 50000, Tol: 1e-10})
		if err != nil {
			return false
		}
		oa, oi := Objective(p, wa), Objective(p, res.W)
		return oa <= oi+1e-6*(1+math.Abs(oi))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolveAnalytic(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p := randomProblem(rng, 200, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveAnalytic(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveIterative(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p := randomProblem(rng, 200, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveIterative(p, IterativeOptions{MaxIters: 2000}); err != nil {
			b.Fatal(err)
		}
	}
}

// Objective evaluates ℓ(w) = wᵀQw + λ‖Aw − s‖², the objective the solvers
// minimize.
func Objective(p *Problem, w []float64) float64 {
	qw := p.Q.MulVec(w)
	obj := linalg.Dot(w, qw)
	aw := p.A.MulVec(w)
	linalg.AXPY(-1, p.S, aw)
	return obj + p.lambda()*linalg.Dot(aw, aw)
}
