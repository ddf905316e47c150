package sthole

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"quicksel/internal/geom"
)

func mustHist(t *testing.T, cfg Config) *Histogram {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Dim: 0}); err == nil {
		t.Error("expected error for Dim 0")
	}
	if _, err := New(Config{Dim: 2, MaxBuckets: -1}); err == nil {
		t.Error("expected error for negative MaxBuckets")
	}
}

func TestInitialUniform(t *testing.T) {
	h := mustHist(t, Config{Dim: 2})
	got, err := h.Estimate(geom.NewBox([]float64{0, 0}, []float64{0.25, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 1e-9 {
		t.Errorf("initial estimate = %g, want 0.25", got)
	}
	if h.NumBuckets() != 1 {
		t.Errorf("NumBuckets = %d, want 1", h.NumBuckets())
	}
}

func TestDrillLearnsObservation(t *testing.T) {
	h := mustHist(t, Config{Dim: 2})
	b := geom.NewBox([]float64{0, 0}, []float64{0.5, 0.5})
	if err := h.Observe(b, 0.8); err != nil {
		t.Fatal(err)
	}
	if h.NumBuckets() != 2 {
		t.Fatalf("NumBuckets = %d, want 2 after one drill", h.NumBuckets())
	}
	got, err := h.Estimate(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.8) > 0.02 {
		t.Errorf("estimate of observed box = %g, want ≈0.8", got)
	}
}

func TestNestedDrills(t *testing.T) {
	h := mustHist(t, Config{Dim: 2})
	outer := geom.NewBox([]float64{0, 0}, []float64{0.6, 0.6})
	inner := geom.NewBox([]float64{0.1, 0.1}, []float64{0.3, 0.3})
	if err := h.Observe(outer, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := h.Observe(inner, 0.5); err != nil {
		t.Fatal(err)
	}
	gotInner, err := h.Estimate(inner)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotInner-0.5) > 0.05 {
		t.Errorf("inner estimate = %g, want ≈0.5", gotInner)
	}
}

func TestMergeBoundsBucketCount(t *testing.T) {
	h := mustHist(t, Config{Dim: 2, MaxBuckets: 10})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		lo := []float64{rng.Float64() * 0.7, rng.Float64() * 0.7}
		box := geom.NewBox(lo, []float64{lo[0] + 0.2, lo[1] + 0.2}).Clip(geom.Unit(2))
		if err := h.Observe(box, rng.Float64()*0.5); err != nil {
			t.Fatal(err)
		}
		if h.NumBuckets() > 10 {
			t.Fatalf("bucket budget exceeded: %d > 10 after query %d", h.NumBuckets(), i)
		}
	}
	if h.NumObserved() != 100 {
		t.Errorf("NumObserved = %d", h.NumObserved())
	}
}

func TestObserveValidation(t *testing.T) {
	h := mustHist(t, Config{Dim: 2})
	if err := h.Observe(geom.Unit(3), 0.5); err == nil {
		t.Error("expected dim mismatch")
	}
	if err := h.Observe(geom.Box{Lo: []float64{1, 1}, Hi: []float64{0, 0}}, 0.5); err == nil {
		t.Error("expected invalid box")
	}
	if err := h.Observe(geom.Unit(2), math.NaN()); err == nil {
		t.Error("expected NaN error")
	}
	empty := geom.NewBox([]float64{0.3, 0.3}, []float64{0.3, 0.3})
	if err := h.Observe(empty, 0.2); err != nil {
		t.Fatal(err)
	}
	if h.NumObserved() != 0 {
		t.Error("empty box should be skipped")
	}
}

func TestEstimateDimMismatch(t *testing.T) {
	h := mustHist(t, Config{Dim: 2})
	if _, err := h.Estimate(geom.Unit(3)); err == nil {
		t.Error("expected dim mismatch")
	}
}

// Property: estimates stay in [0,1] and the tree structure stays sound
// (children nested in parents, mass non-negative) under random workloads.
func TestPropertyTreeSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, err := New(Config{Dim: 2, MaxBuckets: 40})
		if err != nil {
			return false
		}
		for i := 0; i < 30; i++ {
			lo := []float64{rng.Float64() * 0.8, rng.Float64() * 0.8}
			box := geom.NewBox(lo, []float64{lo[0] + rng.Float64()*0.3, lo[1] + rng.Float64()*0.3}).Clip(geom.Unit(2))
			if err := h.Observe(box, rng.Float64()); err != nil {
				return false
			}
		}
		sound := true
		var walk func(n *bucket)
		walk = func(n *bucket) {
			if n.freq < 0 || math.IsNaN(n.freq) {
				sound = false
			}
			for _, c := range n.children {
				if !n.box.ContainsBox(c.box) {
					sound = false
				}
				walk(c)
			}
		}
		walk(h.root)
		if !sound {
			return false
		}
		for k := 0; k < 20; k++ {
			lo := []float64{rng.Float64(), rng.Float64()}
			q := geom.NewBox(lo, []float64{lo[0] + rng.Float64(), lo[1] + rng.Float64()}).Clip(geom.Unit(2))
			e, err := h.Estimate(q)
			if err != nil || e < 0 || e > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTotalMassStaysBounded(t *testing.T) {
	h := mustHist(t, Config{Dim: 2})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		lo := []float64{rng.Float64() * 0.7, rng.Float64() * 0.7}
		box := geom.NewBox(lo, []float64{lo[0] + 0.25, lo[1] + 0.25}).Clip(geom.Unit(2))
		if err := h.Observe(box, rng.Float64()*0.4); err != nil {
			t.Fatal(err)
		}
	}
	mass := h.TotalMass()
	if mass < 0 || mass > 3 || math.IsNaN(mass) {
		t.Errorf("TotalMass = %g drifted outside sane bounds", mass)
	}
}

// TotalMass returns the sum of bucket frequencies (≈1 for a well-calibrated
// histogram; drifts under error feedback, which is the expected behaviour
// of this baseline).
func (h *Histogram) TotalMass() float64 {
	var sum float64
	var walk func(n *bucket)
	walk = func(n *bucket) {
		sum += n.freq
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(h.root)
	return sum
}
