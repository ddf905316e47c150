package experiments

import (
	"fmt"
	"time"

	"quicksel/internal/core"
	"quicksel/internal/isomer"
	"quicksel/internal/stats"
	"quicksel/internal/workload"
)

// This file contains ablations beyond the paper's figures, exercising the
// design choices the paper fixes in §3.3 and §4: the penalty weight λ, the
// points-per-predicate constant, the subpopulation cap, and the solver
// choice on identical inputs.

// AblationPoint is one configuration's quality/cost measurement.
type AblationPoint struct {
	Label   string
	RelErr  float64
	TrainMs float64
}

// AblationResult is a labelled series.
type AblationResult struct {
	Name   string
	Points []AblationPoint
}

// String renders the ablation series.
func (r *AblationResult) String() string {
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{p.Label, fmt.Sprintf("%.2f%%", p.RelErr*100), fmt.Sprintf("%.1f", p.TrainMs)})
	}
	return fmt.Sprintf("Ablation — %s\n", r.Name) +
		renderTable([]string{"Config", "RelErr", "Train(ms)"}, rows)
}

// ablationWorkload builds the shared Gaussian train/test streams.
func ablationWorkload(seed int64, trainN int) ([]workload.Observed, []workload.Observed, error) {
	ds, err := workload.NewGaussian(workload.GaussianConfig{Dim: 2, Corr: 0.5, Rows: 30000, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	train := workload.Observe(ds, workload.GaussianQueries(ds.Schema, trainN, workload.RandomShift, seed+1))
	test := workload.Observe(ds, workload.GaussianQueries(ds.Schema, 100, workload.RandomShift, seed+2))
	return train, test, nil
}

// runCoreConfig trains one core.Config on the streams and measures error
// and training time.
func runCoreConfig(cfg core.Config, train, test []workload.Observed) (AblationPoint, error) {
	m, err := core.New(cfg)
	if err != nil {
		return AblationPoint{}, err
	}
	for _, o := range train {
		if err := m.Observe(o.Query.Box(), o.Sel); err != nil {
			return AblationPoint{}, err
		}
	}
	start := time.Now()
	if err := m.Train(); err != nil {
		return AblationPoint{}, err
	}
	elapsed := float64(time.Since(start).Nanoseconds()) / 1e6
	var rel stats.Summary
	for _, o := range test {
		est, err := m.Estimate(o.Query.Box())
		if err != nil {
			return AblationPoint{}, err
		}
		rel.Add(stats.RelativeError(o.Sel, est))
	}
	return AblationPoint{RelErr: rel.Mean(), TrainMs: elapsed}, nil
}

// RunAblationLambda sweeps the penalty weight λ (A1). The paper fixes
// λ = 1e6; this shows estimates are insensitive above ~1e3 (the consistency
// constraints dominate) and degrade when λ is too small.
func RunAblationLambda(seed int64) (*AblationResult, error) {
	train, test, err := ablationWorkload(seed, 100)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Name: "penalty weight lambda (paper: 1e6)"}
	for _, lambda := range []float64{1e0, 1e2, 1e4, 1e6, 1e8} {
		p, err := runCoreConfig(core.Config{Dim: 2, Seed: seed, Lambda: lambda}, train, test)
		if err != nil {
			return nil, err
		}
		p.Label = fmt.Sprintf("lambda=%.0e", lambda)
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// RunAblationPoints sweeps the points-per-predicate constant (A2). The
// paper reports 10 is enough ("generating more than 10 points did not
// improve accuracy").
func RunAblationPoints(seed int64) (*AblationResult, error) {
	train, test, err := ablationWorkload(seed, 100)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Name: "workload-aware points per predicate (paper: 10)"}
	for _, pts := range []int{1, 3, 5, 10, 20, 40} {
		p, err := runCoreConfig(core.Config{Dim: 2, Seed: seed, PointsPerPredicate: pts}, train, test)
		if err != nil {
			return nil, err
		}
		p.Label = fmt.Sprintf("points=%d", pts)
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// RunAblationCap sweeps the subpopulation cap (A4, paper default 4000).
func RunAblationCap(seed int64) (*AblationResult, error) {
	train, test, err := ablationWorkload(seed, 200)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Name: "subpopulation cap (paper: 4000)"}
	for _, cap := range []int{50, 100, 200, 400, 800} {
		p, err := runCoreConfig(core.Config{Dim: 2, Seed: seed, MaxSubpops: cap}, train, test)
		if err != nil {
			return nil, err
		}
		p.Label = fmt.Sprintf("cap=%d", cap)
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// RunAblationSolver compares the analytic and iterative solvers on
// identical observations (A3) — the model-level companion of Figure 6.
func RunAblationSolver(seed int64) (*AblationResult, error) {
	train, test, err := ablationWorkload(seed, 100)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Name: "analytic vs iterative solver (same observations)"}
	for _, iterative := range []bool{false, true} {
		p, err := runCoreConfig(core.Config{Dim: 2, Seed: seed, UseIterativeSolver: iterative}, train, test)
		if err != nil {
			return nil, err
		}
		if iterative {
			p.Label = "iterative (projected gradient, w>=0)"
		} else {
			p.Label = "analytic (closed form)"
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// RunAblationScaling compares the published iterative-scaling update
// (Equation 8 of Appendix B, which re-evaluates the multiplier products
// every pass) against this repository's incremental optimization
// (mathematically identical, asymptotically cheaper). Both run on the same
// ISOMER bucket partition; the published rule is the default everywhere
// else so baseline comparisons reflect the systems as described.
func RunAblationScaling(seed int64) (*AblationResult, error) {
	ds, err := workload.NewGaussian(workload.GaussianConfig{Dim: 2, Corr: 0.5, Rows: 20000, Seed: seed})
	if err != nil {
		return nil, err
	}
	train := workload.Observe(ds, workload.GaussianQueries(ds.Schema, 60, workload.RandomShift, seed+1))
	test := workload.Observe(ds, workload.GaussianQueries(ds.Schema, 100, workload.RandomShift, seed+2))
	res := &AblationResult{Name: "iterative scaling: published Eq.(8) vs incremental update"}
	for _, incremental := range []bool{false, true} {
		h, err := isomer.New(isomer.Config{Dim: 2, IncrementalScaling: incremental})
		if err != nil {
			return nil, err
		}
		for _, o := range train {
			if err := h.Observe(o.Query.Box(), o.Sel); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if err := h.Train(); err != nil {
			return nil, err
		}
		elapsed := float64(time.Since(start).Nanoseconds()) / 1e6
		var rel stats.Summary
		for _, o := range test {
			est, err := h.Estimate(o.Query.Box())
			if err != nil {
				return nil, err
			}
			rel.Add(stats.RelativeError(o.Sel, est))
		}
		label := "published (direct products)"
		if incremental {
			label = "incremental (optimized)"
		}
		res.Points = append(res.Points, AblationPoint{Label: label, RelErr: rel.Mean(), TrainMs: elapsed})
	}
	return res, nil
}

// RunAblationMixture measures the UMM-vs-GMM trade-off the paper asserts in
// §3.1: QuickSel uses uniform subpopulations because their intersection
// integrals are min/max/multiply, while Gaussian subpopulations need
// transcendental evaluations (erf/exp) even in the diagonal-covariance case
// where closed forms exist. Same workload, same centers policy, same QP.
func RunAblationMixture(seed int64) (*AblationResult, error) {
	train, test, err := ablationWorkload(seed, 100)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Name: "uniform vs Gaussian mixture (paper chooses uniform, §3.1)"}

	umm, err := core.New(core.Config{Dim: 2, Seed: seed})
	if err != nil {
		return nil, err
	}
	gmm, err := core.NewGaussianModel(core.Config{Dim: 2, Seed: seed})
	if err != nil {
		return nil, err
	}
	for _, o := range train {
		if err := umm.Observe(o.Query.Box(), o.Sel); err != nil {
			return nil, err
		}
		if err := gmm.Observe(o.Query.Box(), o.Sel); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	if err := umm.Train(); err != nil {
		return nil, err
	}
	ummMs := float64(time.Since(start).Nanoseconds()) / 1e6
	start = time.Now()
	if err := gmm.Train(); err != nil {
		return nil, err
	}
	gmmMs := float64(time.Since(start).Nanoseconds()) / 1e6

	var eU, eG stats.Summary
	for _, o := range test {
		b := o.Query.Box()
		u, err := umm.Estimate(b)
		if err != nil {
			return nil, err
		}
		g, err := gmm.Estimate(b)
		if err != nil {
			return nil, err
		}
		eU.Add(stats.RelativeError(o.Sel, u))
		eG.Add(stats.RelativeError(o.Sel, g))
	}
	res.Points = append(res.Points,
		AblationPoint{Label: "uniform mixture (QuickSel)", RelErr: eU.Mean(), TrainMs: ummMs},
		AblationPoint{Label: "gaussian mixture (diagonal)", RelErr: eG.Mean(), TrainMs: gmmMs},
	)
	return res, nil
}
