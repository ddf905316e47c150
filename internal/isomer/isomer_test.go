package isomer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"quicksel/internal/geom"
	"quicksel/internal/linalg"
	"quicksel/internal/qp"
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

func TestInitialState(t *testing.T) {
	h := mustHist(t, Config{Dim: 2})
	if h.NumBuckets() != 1 {
		t.Fatalf("NumBuckets = %d, want 1 (B0)", h.NumBuckets())
	}
	// Untrained histogram is the uniform distribution.
	got, err := h.Estimate(geom.NewBox([]float64{0, 0}, []float64{0.5, 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 1e-9 {
		t.Errorf("uniform estimate = %g, want 0.25", got)
	}
}

func TestPartitionInvariants(t *testing.T) {
	h := mustHist(t, Config{Dim: 2})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 15; i++ {
		lo := []float64{rng.Float64() * 0.7, rng.Float64() * 0.7}
		box := geom.NewBox(lo, []float64{lo[0] + 0.05 + rng.Float64()*0.25, lo[1] + 0.05 + rng.Float64()*0.25}).Clip(geom.Unit(2))
		if err := h.Observe(box, rng.Float64()); err != nil {
			t.Fatal(err)
		}
		// Invariant 1: buckets are pairwise disjoint.
		// Invariant 2: buckets tile the unit cube exactly.
		var vol float64
		for a := range h.buckets {
			vol += h.buckets[a].Volume()
			for b := a + 1; b < len(h.buckets); b++ {
				if h.buckets[a].Overlaps(h.buckets[b]) {
					t.Fatalf("buckets %v and %v overlap after query %d", h.buckets[a], h.buckets[b], i)
				}
			}
		}
		if math.Abs(vol-1) > 1e-9 {
			t.Fatalf("partition volume = %g after query %d, want 1", vol, i)
		}
		// Invariant 3 (Appendix B): every observed box is exactly covered.
		if !h.exactlyCovered(box) {
			t.Fatalf("observed box %v not exactly covered after refinement", box)
		}
	}
}

func TestBucketGrowthIsSuperlinear(t *testing.T) {
	// The paper's Limitation 1: bucket count grows much faster than query
	// count for overlapping workloads.
	h := mustHist(t, Config{Dim: 2})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		lo := []float64{rng.Float64() * 0.5, rng.Float64() * 0.5}
		box := geom.NewBox(lo, []float64{lo[0] + 0.3, lo[1] + 0.3})
		if err := h.Observe(box, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumBuckets() < 4*h.NumObserved() {
		t.Errorf("expected superlinear bucket growth, got %d buckets for %d queries",
			h.NumBuckets(), h.NumObserved())
	}
}

func TestBucketCapFreezesPartition(t *testing.T) {
	h := mustHist(t, Config{Dim: 2, MaxBuckets: 30})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		lo := []float64{rng.Float64() * 0.6, rng.Float64() * 0.6}
		box := geom.NewBox(lo, []float64{lo[0] + 0.3, lo[1] + 0.3})
		if err := h.Observe(box, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	// The partition may exceed the cap by one refinement round but must
	// then stop growing.
	if h.NumBuckets() > 30*6 {
		t.Errorf("bucket cap ineffective: %d buckets", h.NumBuckets())
	}
	if !h.frozen {
		t.Error("histogram should be frozen after hitting the cap")
	}
}

func estimatorsAgreeOnTrained(t *testing.T, solver Solver) {
	t.Helper()
	h := mustHist(t, Config{Dim: 2, Solver: solver})
	obs := []struct {
		box geom.Box
		sel float64
	}{
		{geom.NewBox([]float64{0, 0}, []float64{0.5, 1}), 0.8},
		{geom.NewBox([]float64{0, 0}, []float64{1, 0.5}), 0.6},
		{geom.NewBox([]float64{0.25, 0.25}, []float64{0.75, 0.75}), 0.5},
	}
	for _, o := range obs {
		if err := h.Observe(o.box, o.sel); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Train(); err != nil {
		t.Fatal(err)
	}
	for i, o := range obs {
		got, err := h.Estimate(o.box)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-o.sel) > 0.02 {
			t.Errorf("%v query %d: estimate %g, want ≈%g", solver, i, got, o.sel)
		}
	}
	whole, err := h.Estimate(geom.Unit(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(whole-1) > 0.02 {
		t.Errorf("%v: estimate of B0 = %g, want ≈1", solver, whole)
	}
}

func TestIterativeScalingReproducesObservations(t *testing.T) {
	estimatorsAgreeOnTrained(t, IterativeScaling)
}

func TestQuickSelQPReproducesObservations(t *testing.T) {
	estimatorsAgreeOnTrained(t, QuickSelQP)
}

func TestObserveValidation(t *testing.T) {
	h := mustHist(t, Config{Dim: 2})
	if err := h.Observe(geom.Unit(3), 0.5); err == nil {
		t.Error("expected dim mismatch error")
	}
	if err := h.Observe(geom.Box{Lo: []float64{1, 1}, Hi: []float64{0, 0}}, 0.5); err == nil {
		t.Error("expected invalid box error")
	}
	if err := h.Observe(geom.Unit(2), math.NaN()); err == nil {
		t.Error("expected NaN error")
	}
	// Empty boxes are silently skipped.
	empty := geom.NewBox([]float64{0.5, 0.5}, []float64{0.5, 0.5})
	if err := h.Observe(empty, 0.3); err != nil {
		t.Fatal(err)
	}
	if h.NumObserved() != 0 {
		t.Error("empty observation should be skipped")
	}
}

func TestSolverString(t *testing.T) {
	if IterativeScaling.String() == "" || QuickSelQP.String() == "" || Solver(9).String() == "" {
		t.Error("Solver strings must render")
	}
}

// TestWoodburyMatchesDenseQP cross-checks the specialized diagonal-QP
// solver against the dense analytic solver of internal/qp on the same
// instance.
func TestWoodburyMatchesDenseQP(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, n := 20, 5
	vols := make([]float64, m)
	for j := range vols {
		vols[j] = 0.01 + rng.Float64()*0.1
	}
	members := make([][]int, n)
	sels := make([]float64, n)
	members[0] = make([]int, m)
	for j := 0; j < m; j++ {
		members[0][j] = j
	}
	sels[0] = 1
	for i := 1; i < n; i++ {
		for j := 0; j < m; j++ {
			if rng.Float64() < 0.4 {
				members[i] = append(members[i], j)
			}
		}
		sels[i] = rng.Float64()
	}
	const lambda = 1e5
	wFast := solveDiagonalQP(vols, members, sels, lambda)

	// Dense reference.
	q := linalg.NewMatrix(m, m)
	for j := 0; j < m; j++ {
		q.Set(j, j, 1/vols[j])
	}
	a := linalg.NewMatrix(n, m)
	for i, mem := range members {
		for _, j := range mem {
			a.Set(i, j, 1)
		}
	}
	wDense, _, err := qp.SolveAnalytic(&qp.Problem{Q: q, A: a, S: sels, Lambda: lambda})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < m; j++ {
		if math.Abs(wFast[j]-wDense[j]) > 1e-6*(1+math.Abs(wDense[j])) {
			t.Fatalf("w[%d]: woodbury %g vs dense %g", j, wFast[j], wDense[j])
		}
	}
}

// Property: for random consistent workloads both solvers produce estimates
// that reproduce the training observations.
func TestPropertyTrainedConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Hidden truth: mass concentrated in the left half.
		truth := func(b geom.Box) float64 {
			left := b.IntersectionVolume(geom.NewBox([]float64{0, 0}, []float64{0.5, 1}))
			right := b.Volume() - left
			return 1.6*left + 0.4*right
		}
		for _, solver := range []Solver{IterativeScaling, QuickSelQP} {
			h, err := New(Config{Dim: 2, Solver: solver, ScalingIters: 3000})
			if err != nil {
				return false
			}
			var boxes []geom.Box
			for i := 0; i < 6; i++ {
				lo := []float64{rng.Float64() * 0.6, rng.Float64() * 0.6}
				b := geom.NewBox(lo, []float64{lo[0] + 0.3, lo[1] + 0.3})
				boxes = append(boxes, b)
				if err := h.Observe(b, truth(b)); err != nil {
					return false
				}
			}
			if err := h.Train(); err != nil {
				return false
			}
			for _, b := range boxes {
				got, err := h.Estimate(b)
				if err != nil || math.Abs(got-truth(b)) > 0.05 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkObserveTrain(b *testing.B) {
	for _, solver := range []Solver{IterativeScaling, QuickSelQP} {
		b.Run(solver.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			boxes := make([]geom.Box, 25)
			for i := range boxes {
				lo := []float64{rng.Float64() * 0.6, rng.Float64() * 0.6}
				boxes[i] = geom.NewBox(lo, []float64{lo[0] + 0.3, lo[1] + 0.3})
			}
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				h, _ := New(Config{Dim: 2, Solver: solver})
				for _, box := range boxes {
					if err := h.Observe(box, 0.2); err != nil {
						b.Fatal(err)
					}
				}
				if err := h.Train(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
