// Micro-benchmarks for the two hot paths this repository optimizes: the
// quadratic-program training kernel (parallel nearest-center radii, Q/A
// assembly, Gram product, register-tiled blocked Cholesky) and the compiled
// allocation-free estimate loop. They complement the paper-artifact
// benchmarks in bench_test.go: those reproduce figures, these track raw
// kernel throughput across the m (subpopulations) and d (dimensions) axes.
//
// CI runs the m=250 variants once per push (-benchtime=1x) so the benchmark
// code cannot rot; cmd/quickselbench's perf subcommand runs the full matrix
// and records BENCH_quicksel.json.
package quicksel_test

import (
	"fmt"
	"math/rand"
	"testing"

	"quicksel"
	"quicksel/internal/core"
	"quicksel/internal/geom"
)

var perfSizes = []struct{ m, d int }{
	{250, 2}, {250, 8},
	{1000, 2}, {1000, 8},
	{4000, 2}, {4000, 8},
}

// perfModel builds a core model with FixedSubpops=m over n=m/10 synthetic
// observations (enough workload-aware points that the center pool can fill
// the m budget).
func perfModel(tb testing.TB, m, d, workers int) *core.Model {
	tb.Helper()
	model, err := core.New(core.Config{Dim: d, Seed: 1, FixedSubpops: m, Workers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < m/10; q++ {
		lo := make([]float64, d)
		hi := make([]float64, d)
		for k := 0; k < d; k++ {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			lo[k], hi[k] = a, b
		}
		if err := model.Observe(geom.NewBox(lo, hi), rng.Float64()); err != nil {
			tb.Fatal(err)
		}
	}
	return model
}

// BenchmarkTrain times one full training run — subpopulation generation,
// O(m²·d) Q assembly, O(n·m²) Gram product, O(m³/3) blocked Cholesky — on
// all cores (the default Workers). BenchmarkTrain at m=4000 vs the
// sequential baseline is the headline speedup recorded by
// `quickselbench perf`.
func BenchmarkTrain(b *testing.B) {
	for _, sz := range perfSizes {
		b.Run(fmt.Sprintf("m=%d/d=%d", sz.m, sz.d), func(b *testing.B) {
			model := perfModel(b, sz.m, sz.d, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := model.Train(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainSequential is the Workers=1 baseline of the same kernel,
// kept so the speedup is measurable with -bench alone.
func BenchmarkTrainSequential(b *testing.B) {
	for _, sz := range perfSizes {
		b.Run(fmt.Sprintf("m=%d/d=%d", sz.m, sz.d), func(b *testing.B) {
			model := perfModel(b, sz.m, sz.d, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := model.Train(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimate times the compiled serving loop: one multiply-add per
// retained subpopulation over SoA bounds. Must report 0 allocs/op.
func BenchmarkEstimate(b *testing.B) {
	for _, sz := range perfSizes {
		b.Run(fmt.Sprintf("m=%d/d=%d", sz.m, sz.d), func(b *testing.B) {
			model := perfModel(b, sz.m, sz.d, 0)
			if err := model.Train(); err != nil {
				b.Fatal(err)
			}
			lo := make([]float64, sz.d)
			hi := make([]float64, sz.d)
			for k := 0; k < sz.d; k++ {
				lo[k], hi[k] = 0.2, 0.7
			}
			box := geom.NewBox(lo, hi)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := model.Estimate(box); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimateBatch times the public batch path end to end (lowering
// outside the lock, one lock acquisition for the whole batch, the clauses
// split over GOMAXPROCS goroutines, so -cpu 1 times the inline path) and
// reports per-query nanoseconds.
func BenchmarkEstimateBatch(b *testing.B) {
	const batch = 128
	for _, sz := range perfSizes {
		b.Run(fmt.Sprintf("m=%d/d=%d", sz.m, sz.d), func(b *testing.B) {
			est := perfEstimator(b, sz.m, sz.d)
			preds := make([]*quicksel.Predicate, batch)
			rng := rand.New(rand.NewSource(3))
			for i := range preds {
				col := i % sz.d
				lo := rng.Float64() * 0.8
				preds[i] = quicksel.Range(col, lo, lo+0.2)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := est.EstimateBatch(preds); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if b.Elapsed() > 0 && b.N > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/query")
			}
		})
	}
}

// BenchmarkEstimateBatchParallel runs 64-clause d=8 conjunction batches
// from every goroutine b.RunParallel starts, all on one trained m=2000
// estimator, so running it at -cpu 1,2 shows how reads of a single
// estimator scale with cores. ns/op is wall clock per batch across all
// goroutines, the inverse of aggregate throughput.
func BenchmarkEstimateBatchParallel(b *testing.B) {
	const m, d, batch = 2000, 8, 64
	est := perfEstimator(b, m, d)
	rng := rand.New(rand.NewSource(3))
	preds := make([]*quicksel.Predicate, batch)
	for i := range preds {
		leaves := make([]*quicksel.Predicate, d)
		for k := range leaves {
			lo := rng.Float64() * 0.5
			leaves[k] = quicksel.Range(k, lo, lo+0.5)
		}
		preds[i] = quicksel.And(leaves...)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := est.EstimateBatch(preds); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// perfEstimator builds a trained public estimator over d real [0,1] columns
// with a fixed m-subpopulation budget.
func perfEstimator(tb testing.TB, m, d int) *quicksel.Estimator {
	tb.Helper()
	cols := make([]quicksel.Column, d)
	for i := range cols {
		cols[i] = quicksel.Column{Name: fmt.Sprintf("c%d", i), Kind: quicksel.Real, Min: 0, Max: 1}
	}
	schema, err := quicksel.NewSchema(cols...)
	if err != nil {
		tb.Fatal(err)
	}
	est, err := quicksel.New(schema, quicksel.WithSeed(1), quicksel.WithFixedSubpopulations(m))
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < m/10; q++ {
		col := q % d
		lo := rng.Float64() * 0.7
		if err := est.Observe(quicksel.Range(col, lo, lo+0.3), rng.Float64()); err != nil {
			tb.Fatal(err)
		}
	}
	if err := est.Train(); err != nil {
		tb.Fatal(err)
	}
	return est
}
