package scanhist

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
	if _, err := New(tb, Config{Buckets: 0}); err == nil {
		t.Error("expected error for zero buckets")
	}
	if _, err := New(tb, Config{Buckets: 100, RefreshFraction: 2}); err == nil {
		t.Error("expected error for refresh fraction > 1")
	}
}

func TestIntRoot(t *testing.T) {
	tests := []struct{ n, d, want int }{
		{100, 2, 10},
		{99, 2, 9},
		{1000, 3, 10},
		{1, 2, 1},
		{5, 3, 1},
		{16, 4, 2},
	}
	for _, tt := range tests {
		if got := intRoot(tt.n, tt.d); got != tt.want {
			t.Errorf("intRoot(%d, %d) = %d, want %d", tt.n, tt.d, got, tt.want)
		}
	}
}

func TestUniformDataEstimates(t *testing.T) {
	tb := uniformTable(t, 20000, 2)
	h, err := New(tb, Config{Buckets: 100})
	if err != nil {
		t.Fatal(err)
	}
	if h.ParamCount() != 100 {
		t.Errorf("ParamCount = %d, want 100", h.ParamCount())
	}
	// On uniform data the estimate equals the box volume.
	q := geom.NewBox([]float64{0.1, 0.2}, []float64{0.6, 0.7})
	got, err := h.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 0.02 {
		t.Errorf("estimate = %g, want ≈0.25", got)
	}
	// Whole domain ≈ 1.
	whole, err := h.Estimate(geom.Unit(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(whole-1) > 1e-9 {
		t.Errorf("whole-domain estimate = %g, want 1", whole)
	}
}

func TestPartialCellOverlap(t *testing.T) {
	tb := uniformTable(t, 50000, 3)
	h, err := New(tb, Config{Buckets: 16}) // 4×4 grid, cells of width 0.25
	if err != nil {
		t.Fatal(err)
	}
	// A box covering half a cell in each dimension.
	q := geom.NewBox([]float64{0, 0}, []float64{0.125, 0.125})
	got, err := h.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.015625) > 0.005 {
		t.Errorf("partial-cell estimate = %g, want ≈0.0156", got)
	}
}

func TestSkewedDataBeatsNothing(t *testing.T) {
	// All mass in the lower-left quadrant.
	s := predicate.MustSchema(
		predicate.Column{Name: "a", Kind: predicate.Real, Min: 0, Max: 1},
		predicate.Column{Name: "b", Kind: predicate.Real, Min: 0, Max: 1},
	)
	tb := table.New(s)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		if err := tb.Insert([]float64{rng.Float64() * 0.5, rng.Float64() * 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	h, err := New(tb, Config{Buckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Estimate(geom.NewBox([]float64{0, 0}, []float64{0.5, 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 0.02 {
		t.Errorf("skewed estimate = %g, want ≈1", got)
	}
	empty, err := h.Estimate(geom.NewBox([]float64{0.5, 0.5}, []float64{1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if empty > 0.02 {
		t.Errorf("empty-region estimate = %g, want ≈0", empty)
	}
}

func TestAutoRefreshRule(t *testing.T) {
	tb := uniformTable(t, 1000, 5)
	h, err := New(tb, Config{Buckets: 25, RefreshFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if h.Rebuilds() != 1 {
		t.Fatalf("Rebuilds = %d, want 1 after New", h.Rebuilds())
	}
	// Insert 10%: below threshold, no rebuild.
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		_ = tb.Insert([]float64{rng.Float64(), rng.Float64()})
	}
	if h.MaybeRefresh() {
		t.Error("10% change must not trigger a rebuild at 20% threshold")
	}
	// Another 15%: above threshold now.
	for i := 0; i < 165; i++ {
		_ = tb.Insert([]float64{rng.Float64(), rng.Float64()})
	}
	if !h.MaybeRefresh() {
		t.Error("24% change must trigger a rebuild")
	}
	if h.Rebuilds() != 2 {
		t.Errorf("Rebuilds = %d, want 2", h.Rebuilds())
	}
}

func TestEmptyTable(t *testing.T) {
	s := predicate.MustSchema(predicate.Column{Name: "a", Kind: predicate.Real, Min: 0, Max: 1})
	tb := table.New(s)
	h, err := New(tb, Config{Buckets: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Estimate(geom.Unit(1))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("empty-table estimate = %g, want 0", got)
	}
}

func TestEstimateDimMismatch(t *testing.T) {
	tb := uniformTable(t, 10, 7)
	h, err := New(tb, Config{Buckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Estimate(geom.Unit(3)); err == nil {
		t.Error("expected dim mismatch")
	}
}

// Rebuilds returns how many full scans have been performed (1 after New).
func (h *Histogram) Rebuilds() int { return h.rebuilds }
