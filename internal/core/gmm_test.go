package core

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"quicksel/internal/geom"
	"quicksel/internal/stats"
	"quicksel/internal/workload"
)

func TestGaussianModelUniformPrior(t *testing.T) {
	g, err := NewGaussianModel(Config{Dim: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Estimate(geom.NewBox([]float64{0, 0}, []float64{0.5, 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("prior estimate = %g, want 0.25", got)
	}
}

func TestGaussianModelReproducesObservations(t *testing.T) {
	g, err := NewGaussianModel(Config{Dim: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	obs := []struct {
		box geom.Box
		sel float64
	}{
		{geom.NewBox([]float64{0, 0}, []float64{0.5, 1}), 0.7},
		{geom.NewBox([]float64{0.5, 0}, []float64{1, 1}), 0.3},
		{geom.NewBox([]float64{0, 0}, []float64{1, 0.5}), 0.5},
	}
	for _, o := range obs {
		if err := g.Observe(o.box, o.sel); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Train(); err != nil {
		t.Fatal(err)
	}
	for i, o := range obs {
		got, err := g.Estimate(o.box)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-o.sel) > 0.05 {
			t.Errorf("query %d: estimate %g, want ≈%g", i, got, o.sel)
		}
	}
	whole, err := g.Estimate(geom.Unit(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(whole-1) > 0.05 {
		t.Errorf("estimate of B0 = %g, want ≈1", whole)
	}
	if g.ParamCount() != 4*g.NumObserved() {
		t.Errorf("ParamCount = %d, want %d", g.ParamCount(), 4*g.NumObserved())
	}
}

func TestGaussianModelValidation(t *testing.T) {
	if _, err := NewGaussianModel(Config{Dim: 0}); err == nil {
		t.Error("expected error for Dim 0")
	}
	g, err := NewGaussianModel(Config{Dim: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Observe(geom.Unit(3), 0.5); err == nil {
		t.Error("expected dim mismatch")
	}
	if _, err := g.Estimate(geom.Unit(3)); err == nil {
		t.Error("expected dim mismatch")
	}
}

// TestGaussianVsUniformOnWorkload checks both variants learn the same
// workload to comparable accuracy — the premise behind the paper's claim
// that the choice is about training cost, not expressiveness.
func TestGaussianVsUniformOnWorkload(t *testing.T) {
	ds, err := workload.NewGaussian(workload.GaussianConfig{Dim: 2, Corr: 0.5, Rows: 15000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	train := workload.Observe(ds, workload.GaussianQueries(ds.Schema, 80, workload.RandomShift, 5))
	test := workload.Observe(ds, workload.GaussianQueries(ds.Schema, 50, workload.RandomShift, 6))

	umm := mustModel(t, Config{Dim: 2, Seed: 7})
	gmm, err := NewGaussianModel(Config{Dim: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range train {
		if err := umm.Observe(o.Query.Box(), o.Sel); err != nil {
			t.Fatal(err)
		}
		if err := gmm.Observe(o.Query.Box(), o.Sel); err != nil {
			t.Fatal(err)
		}
	}
	if err := umm.Train(); err != nil {
		t.Fatal(err)
	}
	if err := gmm.Train(); err != nil {
		t.Fatal(err)
	}
	var eU, eG stats.Summary
	for _, o := range test {
		b := o.Query.Box()
		u, err := umm.Estimate(b)
		if err != nil {
			t.Fatal(err)
		}
		g, err := gmm.Estimate(b)
		if err != nil {
			t.Fatal(err)
		}
		eU.Add(stats.RelativeError(o.Sel, u))
		eG.Add(stats.RelativeError(o.Sel, g))
	}
	t.Logf("UMM err %.3f vs GMM err %.3f", eU.Mean(), eG.Mean())
	// Both must be usable models (each beating a 100% error bar) and within
	// a factor of each other.
	if eU.Mean() > 1 || eG.Mean() > 1 {
		t.Errorf("mixture errors too high: UMM %.3f GMM %.3f", eU.Mean(), eG.Mean())
	}
	if eG.Mean() > 4*eU.Mean()+0.05 {
		t.Errorf("GMM (%.3f) should be competitive with UMM (%.3f)", eG.Mean(), eU.Mean())
	}
}

func TestGaussianModelEstimatesInRange(t *testing.T) {
	g, err := NewGaussianModel(Config{Dim: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		lo := []float64{rng.Float64() * 0.7, rng.Float64() * 0.7}
		b := geom.NewBox(lo, []float64{lo[0] + 0.2, lo[1] + 0.2}).Clip(geom.Unit(2))
		if err := g.Observe(b, rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 30; k++ {
		lo := []float64{rng.Float64(), rng.Float64()}
		b := geom.NewBox(lo, []float64{lo[0] + rng.Float64(), lo[1] + rng.Float64()}).Clip(geom.Unit(2))
		e, err := g.Estimate(b)
		if err != nil {
			t.Fatal(err)
		}
		if e < 0 || e > 1 || math.IsNaN(e) {
			t.Fatalf("estimate %g out of range", e)
		}
	}
}

// referenceRadii is the loop centerRadii replaced: sort all m−1 squared
// distances of each center, then average the square roots of the k
// smallest, in ascending order.
func referenceRadii(centers [][]float64, k int) []float64 {
	radii := make([]float64, len(centers))
	dists := make([]float64, 0, len(centers))
	for i, c := range centers {
		dists = dists[:0]
		for j, other := range centers {
			if j == i {
				continue
			}
			dists = append(dists, geom.SquaredDistance(c, other))
		}
		if len(dists) == 0 {
			radii[i] = 0.5
			continue
		}
		kk := k
		if kk > len(dists) {
			kk = len(dists)
		}
		sort.Float64s(dists)
		var sum float64
		for _, d2 := range dists[:kk] {
			sum += math.Sqrt(d2)
		}
		radii[i] = sum / float64(kk)
	}
	return radii
}

// The bounded k-nearest selection gives the sort-based radii bit for bit,
// ties included, at any worker count, and sizes its buffer by m rather than
// by k: a snapshot's nearest_centers has no upper bound.
func TestCenterRadiiMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, m := range []int{1, 2, 10, 11, 517} {
		// Grid coordinates make many distances tie, and every fourth center
		// repeats an earlier one exactly.
		centers := make([][]float64, m)
		for i := range centers {
			if i > 0 && i%4 == 0 {
				centers[i] = append([]float64(nil), centers[rng.Intn(i)]...)
				continue
			}
			centers[i] = []float64{float64(rng.Intn(5)) / 4, float64(rng.Intn(5)) / 4, rng.Float64()}
		}
		for _, k := range []int{1, 10, m - 1, m, 1 << 30} {
			want := referenceRadii(centers, k)
			for _, workers := range []int{1, 3} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				got := centerRadii(centers, k, workers)
				runtime.ReadMemStats(&after)
				if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
					t.Fatalf("m=%d k=%d workers=%d: allocated %d bytes", m, k, workers, alloc)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("m=%d k=%d workers=%d: radius %d = %v, want %v", m, k, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// The Gaussian ablation honours Workers like the uniform model: its radii,
// Gram product and factorization are split over the configured goroutines,
// and every worker count trains bit-identical weights.
func TestGaussianModelWorkersBitIdentical(t *testing.T) {
	var want []float64
	for _, workers := range []int{1, 2, 3} {
		g, err := NewGaussianModel(Config{Dim: 3, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		for q := 0; q < 30; q++ {
			lo := make([]float64, 3)
			hi := make([]float64, 3)
			for d := range lo {
				a, b := rng.Float64(), rng.Float64()
				lo[d], hi[d] = math.Min(a, b), math.Max(a, b)
			}
			if err := g.Observe(geom.NewBox(lo, hi), rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Train(); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = g.weights
			continue
		}
		if len(g.weights) != len(want) {
			t.Fatalf("workers=%d: %d weights, want %d", workers, len(g.weights), len(want))
		}
		for i := range want {
			if math.Float64bits(g.weights[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: weight %d = %v, want %v", workers, i, g.weights[i], want[i])
			}
		}
	}
}
