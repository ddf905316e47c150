package core

// This file implements the Gaussian-mixture variant QuickSel's §3.1
// deliberately rejects: "the Gaussian mixture model uses a Gaussian
// distribution for each subpopulation ... Nevertheless, we intentionally
// use the uniform mixture model for QuickSel due to its computational
// benefit in the training process."
//
// The paper notes the general-covariance Gaussian intersection integral
// needs numerical approximation. Restricting to diagonal covariances makes
// both training integrals closed-form, which lets this repository measure
// the UMM-vs-GMM trade-off (accuracy and training cost) instead of merely
// asserting it — see RunAblationMixture in internal/experiments:
//
//	∫ g_i·g_j dx = Π_d N(μ_id − μ_jd; 0, σ_id² + σ_jd²)
//	∫_B g_j dx   = Π_d ½[erf((hi_d−μ_jd)/(σ_jd√2)) − erf((lo_d−μ_jd)/(σ_jd√2))]
//
// Subpopulation placement reuses the UMM's workload-aware centers and
// nearest-neighbour radii (σ = radius/2, so ±2σ ≈ the UMM box).

import (
	"fmt"
	"math"

	"quicksel/internal/geom"
	"quicksel/internal/linalg"
	"quicksel/internal/par"
	"quicksel/internal/qp"
)

// GaussianModel is the diagonal-covariance Gaussian mixture counterpart of
// Model, with the same Observe/Train/Estimate workflow.
type GaussianModel struct {
	umm *Model // reused for observation bookkeeping and point generation

	centers [][]float64
	sigmas  []float64 // isotropic σ per subpopulation
	weights []float64
	trained bool
}

// NewGaussianModel returns an empty Gaussian mixture model.
func NewGaussianModel(cfg Config) (*GaussianModel, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &GaussianModel{umm: m}, nil
}

// Observe records one (box, selectivity) training pair.
func (g *GaussianModel) Observe(box geom.Box, sel float64) error {
	if err := g.umm.Observe(box, sel); err != nil {
		return err
	}
	g.trained = false
	return nil
}

// NumObserved returns the number of recorded queries.
func (g *GaussianModel) NumObserved() int { return g.umm.NumObserved() }

// ParamCount returns the number of mixture weights after training.
func (g *GaussianModel) ParamCount() int { return len(g.weights) }

// Train places Gaussian subpopulations at the workload-aware centers and
// solves the same penalized QP as the UMM.
func (g *GaussianModel) Train() error {
	n := g.umm.NumObserved()
	if n == 0 {
		g.centers, g.sigmas, g.weights = nil, nil, nil
		g.trained = true
		return nil
	}
	centers := g.umm.sampleCenters(g.umm.targetSubpops())
	if len(centers) == 0 {
		g.centers, g.sigmas, g.weights = nil, nil, nil
		g.trained = true
		return nil
	}
	g.centers = centers
	g.sigmas = centerRadii(centers, g.umm.cfg.NearestCenters, g.umm.cfg.Workers)
	for i := range g.sigmas {
		// ±2σ spans the UMM box of the same radius.
		g.sigmas[i] /= 2
		if g.sigmas[i] < 1e-6 {
			g.sigmas[i] = 1e-6
		}
	}

	m := len(centers)
	d := g.umm.cfg.Dim
	q := linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			v := 1.0
			varSum := float64(g.sigmas[i]*g.sigmas[i]) + float64(g.sigmas[j]*g.sigmas[j])
			for dd := 0; dd < d; dd++ {
				diff := g.centers[i][dd] - g.centers[j][dd]
				v *= math.Exp(-diff*diff/(2*varSum)) / math.Sqrt(2*math.Pi*varSum)
			}
			q.Set(i, j, v)
			q.Set(j, i, v)
		}
	}
	a := linalg.NewMatrix(n+1, m)
	s := make([]float64, n+1)
	s[0] = 1
	unit := geom.Unit(d)
	for j := 0; j < m; j++ {
		a.Set(0, j, g.boxMass(j, unit))
	}
	for i, o := range g.umm.observations {
		s[i+1] = o.sel
		for j := 0; j < m; j++ {
			a.Set(i+1, j, g.boxMass(j, o.box))
		}
	}
	w, _, err := qp.SolveAnalytic(&qp.Problem{Q: q, A: a, S: s, Lambda: g.umm.cfg.Lambda, Workers: g.umm.cfg.Workers})
	if err != nil {
		return fmt.Errorf("core: gaussian training: %w", err)
	}
	g.weights = w
	g.trained = true
	return nil
}

// boxMass returns ∫_B g_j dx for the j-th Gaussian subpopulation.
func (g *GaussianModel) boxMass(j int, b geom.Box) float64 {
	if b.IsEmpty() {
		return 0
	}
	sigma := g.sigmas[j]
	inv := 1 / (sigma * math.Sqrt2)
	mass := 1.0
	for d := 0; d < b.Dim(); d++ {
		mu := g.centers[j][d]
		mass *= 0.5 * (math.Erf((b.Hi[d]-mu)*inv) - math.Erf((b.Lo[d]-mu)*inv))
		if mass == 0 {
			return 0
		}
	}
	return mass
}

// Estimate returns the mixture's selectivity estimate for a normalized
// box, clamped to [0,1]. Untrained models train lazily; with no usable
// subpopulations the uniform prior applies.
func (g *GaussianModel) Estimate(box geom.Box) (float64, error) {
	if box.Dim() != g.umm.cfg.Dim {
		return 0, fmt.Errorf("core: query box has dim %d, model has %d", box.Dim(), g.umm.cfg.Dim)
	}
	if !g.trained {
		if err := g.Train(); err != nil {
			return 0, err
		}
	}
	b := box.Clip(g.umm.unit)
	if len(g.weights) == 0 {
		return b.Volume(), nil
	}
	var est float64
	for j, w := range g.weights {
		if w == 0 {
			continue
		}
		est += float64(w * g.boxMass(j, b))
	}
	if est < 0 {
		est = 0
	}
	if est > 1 {
		est = 1
	}
	return est, nil
}

// centerRadii returns, for each center, the average distance to its k
// nearest other centers (§3.3 step 3, shared by both mixture variants). Each
// center keeps only its min(k, m−1) smallest squared distances, sorted by
// insertion, and sums their square roots in ascending order: the k smallest
// values of a multiset, ties included, are the values a full sort puts
// first, in the same order, so the radii are those of sorting all m−1. The
// centers are split over workers goroutines (0 = GOMAXPROCS), each writing
// only its own radii.
func centerRadii(centers [][]float64, k, workers int) []float64 {
	m := len(centers)
	radii := make([]float64, m)
	if m == 1 {
		radii[0] = 0.5 // no other center to measure against
		return radii
	}
	kk := min(k, m-1)
	par.For(workers, m, 0, func(lo, hi int) {
		nearest := make([]float64, 0, kk)
		for i := lo; i < hi; i++ {
			nearest = nearest[:0]
			for j, other := range centers {
				if j == i {
					continue
				}
				d2 := geom.SquaredDistance(centers[i], other)
				if len(nearest) == kk {
					if kk == 0 || d2 >= nearest[kk-1] {
						continue
					}
					nearest = nearest[:kk-1]
				}
				// Insert d2, moving the larger kept values up one place.
				p := len(nearest)
				nearest = append(nearest, d2)
				for ; p > 0 && nearest[p-1] > d2; p-- {
					nearest[p] = nearest[p-1]
				}
				nearest[p] = d2
			}
			var sum float64
			for _, d2 := range nearest {
				sum += math.Sqrt(d2)
			}
			radii[i] = sum / float64(kk)
		}
	})
	return radii
}
