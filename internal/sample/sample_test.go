package sample

import (
	"math"
	"math/rand"
	"testing"

	"quicksel/internal/geom"
	"quicksel/internal/predicate"
	"quicksel/internal/table"
)

func uniformTable(t *testing.T, rows int, seed int64) *table.Table {
	t.Helper()
	s := predicate.MustSchema(
		predicate.Column{Name: "a", Kind: predicate.Real, Min: 0, Max: 1},
		predicate.Column{Name: "b", Kind: predicate.Real, Min: 0, Max: 1},
	)
	tb := table.New(s)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		if err := tb.Insert([]float64{rng.Float64(), rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	tb.ResetModified()
	return tb
}

func TestNewValidation(t *testing.T) {
	tb := uniformTable(t, 10, 1)
	if _, err := New(tb, Config{Size: 0}); err == nil {
		t.Error("expected error for zero size")
	}
	if _, err := New(tb, Config{Size: 5, RefreshFraction: -0.5}); err == nil {
		t.Error("expected error for negative refresh fraction")
	}
}

func TestSampleEstimatesUniform(t *testing.T) {
	tb := uniformTable(t, 50000, 2)
	s, err := New(tb, Config{Size: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Estimate(geom.NewBox([]float64{0, 0}, []float64{0.5, 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 0.03 {
		t.Errorf("estimate = %g, want ≈0.25", got)
	}
	if s.ParamCount() != 2000*2 {
		t.Errorf("ParamCount = %d, want 4000", s.ParamCount())
	}
}

func TestSampleSmallerTableThanSize(t *testing.T) {
	tb := uniformTable(t, 50, 4)
	s, err := New(tb, Config{Size: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The sample holds every row; estimates are exact.
	got, err := s.Estimate(geom.Unit(2))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("full-domain estimate = %g, want 1", got)
	}
	exact := tb.SelectivityBoxes([]geom.Box{geom.NewBox([]float64{0, 0}, []float64{0.5, 1})})
	est, err := s.Estimate(geom.NewBox([]float64{0, 0}, []float64{0.5, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-exact) > 1e-12 {
		t.Errorf("exhaustive sample estimate = %g, want exact %g", est, exact)
	}
}

func TestAutoRefreshRule(t *testing.T) {
	tb := uniformTable(t, 1000, 6)
	s, err := New(tb, Config{Size: 100, RefreshFraction: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Resamples() != 1 {
		t.Fatalf("Resamples = %d, want 1", s.Resamples())
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ { // 5% — below threshold
		_ = tb.Insert([]float64{rng.Float64(), rng.Float64()})
	}
	if s.MaybeRefresh() {
		t.Error("5% change must not trigger resample at 10% threshold")
	}
	for i := 0; i < 100; i++ { // ~13% total now
		_ = tb.Insert([]float64{rng.Float64(), rng.Float64()})
	}
	if !s.MaybeRefresh() {
		t.Error("13% change must trigger resample")
	}
	if s.Resamples() != 2 {
		t.Errorf("Resamples = %d, want 2", s.Resamples())
	}
}

func TestEmptyTableSample(t *testing.T) {
	sch := predicate.MustSchema(predicate.Column{Name: "a", Kind: predicate.Real, Min: 0, Max: 1})
	tb := table.New(sch)
	s, err := New(tb, Config{Size: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Estimate(geom.Unit(1))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("empty-table estimate = %g, want 0", got)
	}
}

func TestEstimateDimMismatch(t *testing.T) {
	tb := uniformTable(t, 10, 9)
	s, err := New(tb, Config{Size: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Estimate(geom.Unit(3)); err == nil {
		t.Error("expected dim mismatch")
	}
}

func TestReservoirIsUnbiased(t *testing.T) {
	// Rows 0..999 with value = row/1000; the sample mean of the first
	// column should approximate 0.5.
	sch := predicate.MustSchema(predicate.Column{Name: "a", Kind: predicate.Real, Min: 0, Max: 1})
	tb := table.New(sch)
	for i := 0; i < 1000; i++ {
		if err := tb.Insert([]float64{float64(i) / 1000}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(tb, Config{Size: 200, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, p := range s.points {
		mean += p[0]
	}
	mean /= float64(len(s.points))
	if math.Abs(mean-0.5) > 0.06 {
		t.Errorf("reservoir mean = %g, want ≈0.5 (biased sample?)", mean)
	}
}

// Resamples returns how many full samples have been drawn (1 after New).
func (s *Sampler) Resamples() int { return s.resamps }
