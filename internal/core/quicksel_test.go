package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"quicksel/internal/geom"
	"quicksel/internal/stats"
	"quicksel/internal/workload"
)

func mustModel(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Dim: 0}); err == nil {
		t.Error("expected error for Dim 0")
	}
	if _, err := New(Config{Dim: 2, Lambda: -1}); err == nil {
		t.Error("expected error for negative Lambda")
	}
	if _, err := New(Config{Dim: 2, MaxSubpops: -5}); err == nil {
		t.Error("expected error for negative MaxSubpops")
	}
}

func TestUniformPriorBeforeObservations(t *testing.T) {
	m := mustModel(t, Config{Dim: 2, Seed: 1})
	b := geom.NewBox([]float64{0.1, 0.1}, []float64{0.6, 0.6})
	got, err := m.Estimate(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("uniform prior estimate = %g, want 0.25 (box volume)", got)
	}
}

func TestObserveValidation(t *testing.T) {
	m := mustModel(t, Config{Dim: 2, Seed: 1})
	if err := m.Observe(geom.Unit(3), 0.5); err == nil {
		t.Error("expected dim mismatch error")
	}
	if err := m.Observe(geom.Box{Lo: []float64{1, 1}, Hi: []float64{0, 0}}, 0.5); err == nil {
		t.Error("expected invalid box error")
	}
	if err := m.Observe(geom.Unit(2), math.NaN()); err == nil {
		t.Error("expected NaN selectivity error")
	}
	// Out-of-range selectivities clamp rather than error.
	if err := m.Observe(geom.Unit(2), 1.7); err != nil {
		t.Errorf("clampable selectivity rejected: %v", err)
	}
}

// Estimate rejects a NaN corner before training or scanning, on the
// uniform prior and on a trained model alike.
func TestEstimateRejectsNaNCorner(t *testing.T) {
	fresh := mustModel(t, Config{Dim: 2, Seed: 1})
	trained := mustModel(t, Config{Dim: 2, Seed: 1})
	if err := trained.Observe(geom.NewBox([]float64{0, 0}, []float64{0.5, 0.5}), 0.4); err != nil {
		t.Fatal(err)
	}
	if err := trained.Train(); err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Model{"fresh": fresh, "trained": trained} {
		for _, b := range []geom.Box{
			geom.NewBox([]float64{math.NaN(), 0}, []float64{0.5, 0.5}),
			geom.NewBox([]float64{0, 0}, []float64{0.5, math.NaN()}),
		} {
			if got, err := m.Estimate(b); err == nil {
				t.Errorf("%s: Estimate(%v) = %v, want an error", name, b, got)
			}
		}
	}
	if fresh.trained {
		t.Error("a rejected Estimate trained the model")
	}
}

func TestModelReproducesObservedQueries(t *testing.T) {
	m := mustModel(t, Config{Dim: 2, Seed: 7})
	obs := []struct {
		box geom.Box
		sel float64
	}{
		{geom.NewBox([]float64{0, 0}, []float64{0.5, 0.5}), 0.4},
		{geom.NewBox([]float64{0.5, 0.5}, []float64{1, 1}), 0.3},
		{geom.NewBox([]float64{0, 0.5}, []float64{0.5, 1}), 0.2},
	}
	for _, o := range obs {
		if err := m.Observe(o.box, o.sel); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	// The trained model must reproduce the observed selectivities closely
	// (the λ penalty enforces consistency).
	for i, o := range obs {
		got, err := m.Estimate(o.box)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-o.sel) > 0.05 {
			t.Errorf("query %d: estimate = %g, want ≈%g", i, got, o.sel)
		}
	}
	// Whole-domain estimate must be ≈1 (the default query P0).
	whole, err := m.Estimate(geom.Unit(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(whole-1) > 0.02 {
		t.Errorf("estimate of B0 = %g, want ≈1", whole)
	}
}

func TestWeightsSumToOne(t *testing.T) {
	m := mustModel(t, Config{Dim: 2, Seed: 3})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		lo := []float64{rng.Float64() * 0.8, rng.Float64() * 0.8}
		hi := []float64{lo[0] + 0.1, lo[1] + 0.1}
		if err := m.Observe(geom.NewBox(lo, hi), rng.Float64()*0.2); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, w := range m.Weights() {
		sum += w
	}
	if math.Abs(sum-1) > 0.02 {
		t.Errorf("Σw = %g, want ≈1", sum)
	}
}

func TestParamCountFollowsPaperRule(t *testing.T) {
	m := mustModel(t, Config{Dim: 2, Seed: 5})
	for i := 0; i < 30; i++ {
		if err := m.Observe(geom.Unit(2), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	// m = min(4·n, 4000) = 120.
	if got := m.ParamCount(); got != 120 {
		t.Errorf("ParamCount = %d, want 120", got)
	}
	if m.NumObserved() != 30 {
		t.Errorf("NumObserved = %d", m.NumObserved())
	}
}

func TestFixedSubpops(t *testing.T) {
	m := mustModel(t, Config{Dim: 2, Seed: 5, FixedSubpops: 16})
	for i := 0; i < 30; i++ {
		if err := m.Observe(geom.Unit(2), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	if got := m.ParamCount(); got != 16 {
		t.Errorf("ParamCount = %d, want 16", got)
	}
}

func TestMaxSubpopsCap(t *testing.T) {
	m := mustModel(t, Config{Dim: 1, Seed: 5, MaxSubpops: 12})
	for i := 0; i < 30; i++ {
		if err := m.Observe(geom.Unit(1), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	if got := m.ParamCount(); got > 12 {
		t.Errorf("ParamCount = %d exceeds cap 12", got)
	}
}

func TestEmptyObservedBoxFallsBackToUniform(t *testing.T) {
	m := mustModel(t, Config{Dim: 2, Seed: 5})
	empty := geom.NewBox([]float64{0.5, 0.5}, []float64{0.5, 0.5})
	if err := m.Observe(empty, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	got, err := m.Estimate(geom.NewBox([]float64{0, 0}, []float64{0.5, 1}))
	if err != nil {
		t.Fatal(err)
	}
	// Only the default query constrains the model, so the estimate must be
	// near-uniform (the default-query subpopulations approximate it).
	if math.Abs(got-0.5) > 0.05 {
		t.Errorf("estimate = %g, want ≈0.5 (uniform)", got)
	}
}

func TestLazyTrainingOnEstimate(t *testing.T) {
	m := mustModel(t, Config{Dim: 2, Seed: 8})
	if err := m.Observe(geom.NewBox([]float64{0, 0}, []float64{0.5, 1}), 0.9); err != nil {
		t.Fatal(err)
	}
	// No explicit Train call: Estimate must train lazily.
	got, err := m.Estimate(geom.NewBox([]float64{0, 0}, []float64{0.5, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.9) > 0.05 {
		t.Errorf("lazy-trained estimate = %g, want ≈0.9", got)
	}
}

func TestEstimateUnionAdditive(t *testing.T) {
	m := mustModel(t, Config{Dim: 2, Seed: 9})
	if err := m.Observe(geom.Unit(2), 1); err != nil {
		t.Fatal(err)
	}
	left := geom.NewBox([]float64{0, 0}, []float64{0.5, 1})
	right := geom.NewBox([]float64{0.5, 0}, []float64{1, 1})
	el, err := m.Estimate(left)
	if err != nil {
		t.Fatal(err)
	}
	er, err := m.Estimate(right)
	if err != nil {
		t.Fatal(err)
	}
	eu, err := m.EstimateUnion([]geom.Box{left, right})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eu-math.Min(el+er, 1)) > 1e-12 {
		t.Errorf("EstimateUnion = %g, want %g", eu, el+er)
	}
}

func TestIterativeSolverPath(t *testing.T) {
	m := mustModel(t, Config{Dim: 2, Seed: 10, UseIterativeSolver: true})
	// Several observations so the constrained (w >= 0) model has enough
	// subpopulations to be feasible; with a single query the positivity
	// constraint caps how much mass four subpopulations can place inside it.
	boxes := []geom.Box{
		geom.NewBox([]float64{0, 0}, []float64{0.5, 0.5}),
		geom.NewBox([]float64{0.1, 0.1}, []float64{0.45, 0.45}),
		geom.NewBox([]float64{0, 0}, []float64{0.5, 1}),
		geom.NewBox([]float64{0.5, 0}, []float64{1, 1}),
	}
	sels := []float64{0.5, 0.4, 0.6, 0.4}
	for i, b := range boxes {
		if err := m.Observe(b, sels[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	if m.SolverIterations() == 0 {
		t.Error("iterative path should report iterations")
	}
	got, err := m.Estimate(geom.NewBox([]float64{0, 0}, []float64{0.5, 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 0.1 {
		t.Errorf("iterative estimate = %g, want ≈0.5", got)
	}
	whole, err := m.Estimate(geom.Unit(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(whole-1) > 0.1 {
		t.Errorf("iterative estimate of B0 = %g, want ≈1", whole)
	}
	// Weights from the projected solver are non-negative.
	for i, w := range m.Weights() {
		if w < 0 {
			t.Errorf("projected weight %d = %g < 0", i, w)
		}
	}
}

func TestDeterminism(t *testing.T) {
	build := func() *Model {
		m := mustModel(t, Config{Dim: 2, Seed: 77})
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 15; i++ {
			lo := []float64{rng.Float64() * 0.7, rng.Float64() * 0.7}
			hi := []float64{lo[0] + 0.2, lo[1] + 0.2}
			if err := m.Observe(geom.NewBox(lo, hi), rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Train(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := build(), build()
	wa, wb := a.Weights(), b.Weights()
	if len(wa) != len(wb) {
		t.Fatalf("param counts differ: %d vs %d", len(wa), len(wb))
	}
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("weight %d differs: %g vs %g", i, wa[i], wb[i])
		}
	}
}

// TestLearnsGaussianData is the end-to-end sanity check: trained on real
// observed selectivities, the model must beat the uniform prior.
func TestLearnsGaussianData(t *testing.T) {
	ds, err := workload.NewGaussian(workload.GaussianConfig{Dim: 2, Corr: 0.5, Rows: 20000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	train := workload.Observe(ds, workload.GaussianQueries(ds.Schema, 100, workload.RandomShift, 22))
	test := workload.Observe(ds, workload.GaussianQueries(ds.Schema, 50, workload.RandomShift, 23))

	m := mustModel(t, Config{Dim: 2, Seed: 24})
	for _, o := range train {
		if err := m.Observe(o.Query.Box(), o.Sel); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}

	var modelErr, uniformErr stats.Summary
	for _, o := range test {
		b := o.Query.Box()
		est, err := m.Estimate(b)
		if err != nil {
			t.Fatal(err)
		}
		modelErr.Add(stats.RelativeError(o.Sel, est))
		uniformErr.Add(stats.RelativeError(o.Sel, b.Volume()))
	}
	t.Logf("model err = %v | uniform err = %v", modelErr.Mean(), uniformErr.Mean())
	if modelErr.Mean() >= uniformErr.Mean() {
		t.Errorf("trained model (%.3f) must beat the uniform prior (%.3f)",
			modelErr.Mean(), uniformErr.Mean())
	}
	if modelErr.Mean() > 0.5 {
		t.Errorf("mean relative error %.3f too high for 100 training queries", modelErr.Mean())
	}
}

// Property: estimates are always within [0,1] no matter the observations.
func TestPropertyEstimateInRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := New(Config{Dim: 2, Seed: seed})
		if err != nil {
			return false
		}
		for i := 0; i < 5+rng.Intn(10); i++ {
			lo := []float64{rng.Float64(), rng.Float64()}
			hi := []float64{lo[0] + rng.Float64()*0.5, lo[1] + rng.Float64()*0.5}
			if err := m.Observe(geom.NewBox(lo, hi).Clip(geom.Unit(2)), rng.Float64()); err != nil {
				return false
			}
		}
		for k := 0; k < 10; k++ {
			lo := []float64{rng.Float64(), rng.Float64()}
			hi := []float64{lo[0] + rng.Float64(), lo[1] + rng.Float64()}
			e, err := m.Estimate(geom.NewBox(lo, hi).Clip(geom.Unit(2)))
			if err != nil || e < 0 || e > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: monotonicity with respect to nesting is preserved approximately
// for the trained model on consistent observations: estimate(B0) ≥
// estimate(B) for B ⊂ B0 given non-negative weights is not guaranteed by
// the relaxed QP, but the clamped estimates must at least stay ordered
// within tolerance for nested training boxes.
func TestNestedQueriesOrdered(t *testing.T) {
	m := mustModel(t, Config{Dim: 2, Seed: 30})
	inner := geom.NewBox([]float64{0.25, 0.25}, []float64{0.5, 0.5})
	outer := geom.NewBox([]float64{0, 0}, []float64{0.75, 0.75})
	if err := m.Observe(inner, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := m.Observe(outer, 0.8); err != nil {
		t.Fatal(err)
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	ei, err := m.Estimate(inner)
	if err != nil {
		t.Fatal(err)
	}
	eo, err := m.Estimate(outer)
	if err != nil {
		t.Fatal(err)
	}
	if ei > eo+0.05 {
		t.Errorf("nested estimates inverted: inner %g > outer %g", ei, eo)
	}
}

func BenchmarkTrain(b *testing.B) {
	for _, n := range []int{25, 100} {
		b.Run(itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			boxes := make([]geom.Box, n)
			sels := make([]float64, n)
			for i := range boxes {
				lo := []float64{rng.Float64() * 0.7, rng.Float64() * 0.7}
				boxes[i] = geom.NewBox(lo, []float64{lo[0] + 0.2, lo[1] + 0.2})
				sels[i] = rng.Float64()
			}
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				m, _ := New(Config{Dim: 2, Seed: 2})
				for i := range boxes {
					if err := m.Observe(boxes[i], sels[i]); err != nil {
						b.Fatal(err)
					}
				}
				if err := m.Train(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if i == len(buf) {
		return "0"
	}
	return string(buf[i:])
}
