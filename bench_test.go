// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§5). Each benchmark runs the corresponding driver in
// internal/experiments at laptop-scale defaults and reports the headline
// quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The same drivers are exposed as CLI
// subcommands by cmd/quickselbench, which also prints the full row/series
// output.
package quicksel_test

import (
	"testing"

	"quicksel/internal/experiments"
)

// BenchmarkTable3aEfficiency regenerates Table 3a: per-query time of ISOMER
// vs QuickSel at similar accuracy on DMV and Instacart.
func BenchmarkTable3aEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3(experiments.Table3Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SpeedupByDataset["dmv"], "speedup-dmv")
		b.ReportMetric(res.SpeedupByDataset["instacart"], "speedup-instacart")
	}
}

// BenchmarkTable3bAccuracy regenerates Table 3b: absolute error of ISOMER
// vs QuickSel at similar training time.
func BenchmarkTable3bAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3(experiments.Table3Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ErrorReductionByDataset["dmv"]*100, "errreduction%-dmv")
		b.ReportMetric(res.ErrorReductionByDataset["instacart"]*100, "errreduction%-instacart")
	}
}

// benchmarkSweep shares the Figure 3/4 machinery for both datasets.
func benchmarkSweep(b *testing.B, dataset string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSweep(experiments.SweepConfig{Dataset: dataset, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		grouped := res.ByMethod()
		iso := grouped[experiments.MethodISOMER]
		qs := grouped[experiments.MethodQuickSel]
		last := len(iso) - 1
		b.ReportMetric(iso[last].PerQueryMs, "isomer-ms/query")
		b.ReportMetric(qs[last].PerQueryMs, "quicksel-ms/query")
		b.ReportMetric(float64(iso[last].Params), "isomer-params")
		b.ReportMetric(float64(qs[last].Params), "quicksel-params")
		b.ReportMetric(qs[last].RelErr*100, "quicksel-relerr%")
	}
}

// BenchmarkFigure3TimePerQuery regenerates Figures 3a and 3b (DMV): query
// count vs per-query refinement time and the time/error frontier.
func BenchmarkFigure3TimePerQuery(b *testing.B) { benchmarkSweep(b, "dmv") }

// BenchmarkFigure3TimePerQueryInstacart regenerates Figures 3d and 3e.
func BenchmarkFigure3TimePerQueryInstacart(b *testing.B) { benchmarkSweep(b, "instacart") }

// BenchmarkFigure3ErrVsTime regenerates Figures 3c and 3f: minimum training
// time to reach an error target, ISOMER vs QuickSel.
func BenchmarkFigure3ErrVsTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSweep(experiments.SweepConfig{
			Dataset: "dmv",
			Methods: []string{experiments.MethodISOMER, experiments.MethodQuickSel},
			Seed:    3,
		})
		if err != nil {
			b.Fatal(err)
		}
		at := res.TimeToReachError(0.30)
		b.ReportMetric(at[experiments.MethodISOMER], "isomer-ms-to-30%")
		b.ReportMetric(at[experiments.MethodQuickSel], "quicksel-ms-to-30%")
	}
}

// BenchmarkFigure4ParamGrowth regenerates Figures 4a and 4c: model
// parameter growth per observed query.
func BenchmarkFigure4ParamGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSweep(experiments.SweepConfig{
			Dataset: "instacart",
			Methods: []string{experiments.MethodSTHoles, experiments.MethodISOMER, experiments.MethodQuickSel},
			Seed:    4,
		})
		if err != nil {
			b.Fatal(err)
		}
		grouped := res.ByMethod()
		last := len(grouped[experiments.MethodISOMER]) - 1
		b.ReportMetric(float64(grouped[experiments.MethodISOMER][last].Params), "isomer-params")
		b.ReportMetric(float64(grouped[experiments.MethodSTHoles][last].Params), "stholes-params")
		b.ReportMetric(float64(grouped[experiments.MethodQuickSel][last].Params), "quicksel-params")
	}
}

// BenchmarkFigure4ParamError regenerates Figures 4b and 4d: error as a
// function of the parameter budget (QuickSel's model effectiveness).
func BenchmarkFigure4ParamError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure7c(experiments.Figure7cConfig{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		first, last := res.Points[0], res.Points[len(res.Points)-1]
		b.ReportMetric(first.RelErr*100, "relerr%-fewest-params")
		b.ReportMetric(last.RelErr*100, "relerr%-most-params")
	}
}

// BenchmarkFigure5Drift regenerates Figure 5: accuracy under data drift and
// update times of QuickSel vs AutoHist vs AutoSample.
func BenchmarkFigure5Drift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure5(experiments.Figure5Config{Seed: 6})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanQuickSel*100, "quicksel-relerr%")
		b.ReportMetric(res.MeanAutoHist*100, "autohist-relerr%")
		b.ReportMetric(res.MeanAutoSample*100, "autosample-relerr%")
		b.ReportMetric(res.UpdateMsQuickSel, "quicksel-update-ms")
		b.ReportMetric(res.UpdateMsAutoHist, "autohist-update-ms")
	}
}

// BenchmarkFigure6QPSolvers regenerates Figure 6: the standard iterative QP
// vs QuickSel's analytic solution as observed queries grow.
func BenchmarkFigure6QPSolvers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure6(experiments.Figure6Config{Ns: []int{50, 100, 150, 200}, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.AnalyticMs, "analytic-ms")
		b.ReportMetric(last.IterativeMs, "iterative-ms")
	}
}

// BenchmarkFigure7Correlation regenerates Figure 7a.
func BenchmarkFigure7Correlation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure7a(experiments.Figure7aConfig{Seed: 8})
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, p := range res.Points {
			if p.RelErr > worst {
				worst = p.RelErr
			}
		}
		b.ReportMetric(worst*100, "worst-relerr%")
	}
}

// BenchmarkFigure7WorkloadShift regenerates Figure 7b.
func BenchmarkFigure7WorkloadShift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure7b(experiments.Figure7bConfig{Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.RelErr*100, "final-relerr%")
	}
}

// BenchmarkFigure7ParamCount regenerates Figure 7c.
func BenchmarkFigure7ParamCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure7c(experiments.Figure7cConfig{Seed: 10})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[0].RelErr*100, "relerr%-10-params")
		b.ReportMetric(res.Points[len(res.Points)-1].RelErr*100, "relerr%-max-params")
	}
}

// BenchmarkFigure7Dimension regenerates Figure 7d.
func BenchmarkFigure7Dimension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure7d(experiments.Figure7dConfig{Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.AutoHist*100, "autohist-relerr%-10d")
		b.ReportMetric(last.QuickSel*100, "quicksel-relerr%-10d")
	}
}

// BenchmarkAblationLambda sweeps the penalty weight λ of Problem 3 (§4).
func BenchmarkAblationLambda(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationLambda(12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPoints sweeps points-per-predicate (A2).
func BenchmarkAblationPoints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationPoints(13); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSolver compares analytic vs iterative training (A3).
func BenchmarkAblationSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationSolver(14); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCap sweeps the subpopulation cap (A4).
func BenchmarkAblationCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationCap(15); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationScaling compares the published iterative-scaling rule
// against the optimized incremental update (A5).
func BenchmarkAblationScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationScaling(16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMixture compares uniform and Gaussian mixture variants
// on the same workload (A6; §3.1's design choice).
func BenchmarkAblationMixture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationMixture(17); err != nil {
			b.Fatal(err)
		}
	}
}
