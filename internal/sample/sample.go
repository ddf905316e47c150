// Package sample implements AutoSample, the sampling baseline of §5.1: a
// uniform random sample of the table used for selectivity estimation,
// refreshed when more than a configurable fraction of the data changes
// (10% in the paper's setup).
//
// Trade-off: estimates are unbiased and estimation is a linear scan of the
// sample, but accuracy is limited by sampling error (≈1/√size for a given
// row budget) and every refresh rescans the base table — the scan cost
// query-driven methods avoid entirely. quickseld serves it as method
// "sample" over a synthetic table materialized from the feedback stream,
// since a serving daemon has no base table to scan (internal/estimator).
package sample

import (
	"fmt"
	"math/rand"

	"quicksel/internal/geom"
	"quicksel/internal/table"
)

// DefaultRefreshFraction triggers resampling when this fraction of the
// table has changed since the last sample.
const DefaultRefreshFraction = 0.10

// Config tunes the sampler.
type Config struct {
	// Size is the number of sampled rows (the paper equates it with the
	// parameter budget of the other methods).
	Size int
	// RefreshFraction triggers a resample; 0 means DefaultRefreshFraction.
	RefreshFraction float64
	Seed            int64
}

// Sampler estimates selectivities from a uniform row sample.
type Sampler struct {
	cfg     Config
	tbl     *table.Table
	dim     int
	rng     *rand.Rand
	points  [][]float64 // normalized sampled tuples
	resamps int
}

// New draws the initial sample.
func New(tbl *table.Table, cfg Config) (*Sampler, error) {
	if cfg.Size < 1 {
		return nil, fmt.Errorf("sample: Size must be positive, got %d", cfg.Size)
	}
	if cfg.RefreshFraction < 0 || cfg.RefreshFraction > 1 {
		return nil, fmt.Errorf("sample: RefreshFraction %g outside [0,1]", cfg.RefreshFraction)
	}
	if cfg.RefreshFraction == 0 {
		cfg.RefreshFraction = DefaultRefreshFraction
	}
	s := &Sampler{
		cfg: cfg,
		tbl: tbl,
		dim: tbl.Schema().Dim(),
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	s.Resample()
	return s, nil
}

// ParamCount reports the parameter budget: one d-dimensional point per
// sampled row.
func (s *Sampler) ParamCount() int { return len(s.points) * s.dim }

// Resample draws a fresh uniform sample (reservoir sampling over a single
// scan) and resets the table's modification counter.
func (s *Sampler) Resample() {
	schema := s.tbl.Schema()
	reservoir := make([][]float64, 0, s.cfg.Size)
	s.tbl.Scan(func(row int, tuple []float64) {
		norm := schema.NormalizePoint(tuple)
		if len(reservoir) < s.cfg.Size {
			reservoir = append(reservoir, norm)
			return
		}
		if j := s.rng.Intn(row + 1); j < s.cfg.Size {
			reservoir[j] = norm
		}
	})
	s.points = reservoir
	s.resamps++
	s.tbl.ResetModified()
}

// MaybeRefresh resamples if the table changed beyond the threshold.
func (s *Sampler) MaybeRefresh() bool {
	if s.tbl.ModifiedFraction() > s.cfg.RefreshFraction {
		s.Resample()
		return true
	}
	return false
}

// Estimate returns the fraction of sampled rows inside the normalized box.
func (s *Sampler) Estimate(box geom.Box) (float64, error) {
	if box.Dim() != s.dim {
		return 0, fmt.Errorf("sample: query box has dim %d, want %d", box.Dim(), s.dim)
	}
	if len(s.points) == 0 {
		return 0, nil
	}
	count := 0
	for _, p := range s.points {
		if box.Contains(p) {
			count++
		}
	}
	return float64(count) / float64(len(s.points)), nil
}
