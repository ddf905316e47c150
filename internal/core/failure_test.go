package core

// Failure-injection tests: degenerate, contradictory, and adversarial
// inputs must never panic, produce NaN estimates, or leave the model in an
// unusable state.

import (
	"math"
	"math/rand"
	"testing"

	"quicksel/internal/geom"
)

func TestContradictoryObservationsAreReconciled(t *testing.T) {
	// The same box asserted at two different selectivities: the penalized
	// least-squares training must settle near their mean rather than
	// diverging or failing.
	m := mustModel(t, Config{Dim: 2, Seed: 1})
	b := geom.NewBox([]float64{0.2, 0.2}, []float64{0.6, 0.6})
	if err := m.Observe(b, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := m.Observe(b, 0.6); err != nil {
		t.Fatal(err)
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	got, err := m.Estimate(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(got) || got < 0.1 || got > 0.7 {
		t.Errorf("contradiction estimate = %g, want within the asserted band", got)
	}
}

func TestManyDuplicateObservations(t *testing.T) {
	// 50 identical observations must not make Q singular beyond what the
	// ridge handles.
	m := mustModel(t, Config{Dim: 2, Seed: 2})
	b := geom.NewBox([]float64{0.1, 0.1}, []float64{0.4, 0.4})
	for i := 0; i < 50; i++ {
		if err := m.Observe(b, 0.35); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	got, err := m.Estimate(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.35) > 0.05 {
		t.Errorf("duplicate-heavy estimate = %g, want ≈0.35", got)
	}
}

func TestTinyBoxesDoNotBlowUpConditioning(t *testing.T) {
	// Near-degenerate observed boxes yield huge 1/|G| entries in Q; the
	// solve must stay finite.
	m := mustModel(t, Config{Dim: 2, Seed: 3})
	for i := 0; i < 10; i++ {
		lo := []float64{0.1 * float64(i), 0.1 * float64(i)}
		hi := []float64{lo[0] + 1e-7, lo[1] + 1e-7}
		if err := m.Observe(geom.NewBox(lo, hi), 0.001); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	got, err := m.Estimate(geom.Unit(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(got) || got < 0 || got > 1 {
		t.Errorf("estimate = %g with near-degenerate training boxes", got)
	}
}

func TestBoundaryBoxes(t *testing.T) {
	// Observations flush against every face of the unit cube.
	m := mustModel(t, Config{Dim: 2, Seed: 4})
	faces := []geom.Box{
		geom.NewBox([]float64{0, 0}, []float64{0.05, 1}),
		geom.NewBox([]float64{0.95, 0}, []float64{1, 1}),
		geom.NewBox([]float64{0, 0}, []float64{1, 0.05}),
		geom.NewBox([]float64{0, 0.95}, []float64{1, 1}),
	}
	for _, f := range faces {
		if err := m.Observe(f, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	for _, f := range faces {
		got, err := m.Estimate(f)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-0.1) > 0.05 {
			t.Errorf("boundary face %v: estimate %g, want ≈0.1", f, got)
		}
	}
}

func TestZeroSelectivityEverywhere(t *testing.T) {
	// All observed selectivities zero except the implicit default (P0, 1):
	// mass must be pushed outside the observed boxes.
	m := mustModel(t, Config{Dim: 1, Seed: 5})
	left := geom.NewBox([]float64{0}, []float64{0.5})
	if err := m.Observe(left, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	gotLeft, err := m.Estimate(left)
	if err != nil {
		t.Fatal(err)
	}
	gotRight, err := m.Estimate(geom.NewBox([]float64{0.5}, []float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	if gotLeft > 0.05 {
		t.Errorf("zero-observed region estimates %g, want ≈0", gotLeft)
	}
	if math.Abs(gotRight-1) > 0.05 {
		t.Errorf("complement estimates %g, want ≈1", gotRight)
	}
}

func TestRetrainAfterMoreObservations(t *testing.T) {
	// Train, observe more, estimate again: the lazy retrain must pick up
	// the new information.
	m := mustModel(t, Config{Dim: 1, Seed: 6})
	if err := m.Observe(geom.NewBox([]float64{0}, []float64{0.5}), 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Estimate(geom.Unit(1)); err != nil {
		t.Fatal(err)
	}
	// New evidence: the left half actually holds 90%.
	if err := m.Observe(geom.NewBox([]float64{0}, []float64{0.5}), 0.9); err != nil {
		t.Fatal(err)
	}
	got, err := m.Estimate(geom.NewBox([]float64{0}, []float64{0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.6 {
		t.Errorf("retrained estimate = %g, should move toward the newer evidence", got)
	}
}

func TestSubpopulationInvariants(t *testing.T) {
	// After training, every subpopulation box lies inside the unit cube
	// with strictly positive volume — required for Q's diagonal 1/|G_z|.
	m := mustModel(t, Config{Dim: 3, Seed: 7})
	rng := rand.New(rand.NewSource(8))
	unit := geom.Unit(3)
	for i := 0; i < 30; i++ {
		lo := []float64{rng.Float64() * 0.8, rng.Float64() * 0.8, rng.Float64() * 0.8}
		hi := []float64{lo[0] + 0.2, lo[1] + 0.2, lo[2] + 0.2}
		if err := m.Observe(geom.NewBox(lo, hi).Clip(unit), rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	subs := m.Subpopulations()
	if len(subs) != m.ParamCount() {
		t.Fatalf("Subpopulations (%d) disagrees with ParamCount (%d)", len(subs), m.ParamCount())
	}
	for i, g := range subs {
		if !unit.ContainsBox(g) {
			t.Errorf("subpopulation %d escapes the unit cube: %v", i, g)
		}
		if g.Volume() <= 0 {
			t.Errorf("subpopulation %d has non-positive volume: %v", i, g)
		}
	}
	// Mutating the returned copies must not affect the model.
	subs[0].Lo[0] = -99
	if m.Subpopulations()[0].Lo[0] == -99 {
		t.Error("Subpopulations must return copies")
	}
}

func TestHighDimensionalTraining(t *testing.T) {
	// 10 dimensions (Fig 7d's extreme) at modest size must train cleanly.
	m := mustModel(t, Config{Dim: 10, Seed: 9})
	rng := rand.New(rand.NewSource(10))
	unit := geom.Unit(10)
	for i := 0; i < 20; i++ {
		lo := make([]float64, 10)
		hi := make([]float64, 10)
		for d := range lo {
			lo[d] = rng.Float64() * 0.5
			hi[d] = lo[d] + 0.3 + rng.Float64()*0.2
		}
		if err := m.Observe(geom.NewBox(lo, hi).Clip(unit), rng.Float64()*0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	got, err := m.Estimate(unit)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 0.05 {
		t.Errorf("10-dim estimate of B0 = %g, want ≈1", got)
	}
}
