// Package scanhist implements AutoHist, the scan-based baseline of §5.1:
// an equiwidth multidimensional histogram built by scanning the table,
// automatically rebuilt when more than a configurable fraction of the data
// changes (SQL Server's AUTO_UPDATE_STATISTICS rule, 20% by default).
//
// Trade-off: estimation is extremely fast (a product walk over the touched
// grid cells) and the budget is fixed up front, but the equiwidth grid
// assumes uniformity within each cell and its per-dimension resolution
// collapses as dimensionality grows (floor(Buckets^(1/d)) bins per axis) —
// the curse of dimensionality that query-driven methods sidestep by
// spending parameters only where queries land. quickseld serves it as
// method "scanhist" over a synthetic table materialized from the feedback
// stream (internal/estimator).
package scanhist

import (
	"fmt"

	"quicksel/internal/geom"
	"quicksel/internal/table"
)

// DefaultRefreshFraction is SQL Server's auto-update threshold.
const DefaultRefreshFraction = 0.20

// Config tunes the histogram.
type Config struct {
	// Buckets is the total parameter budget; the grid uses
	// floor(Buckets^(1/d)) bins per dimension (at least 1).
	Buckets int
	// RefreshFraction triggers a rebuild when ModifiedFraction exceeds it;
	// 0 means DefaultRefreshFraction.
	RefreshFraction float64
}

// Histogram is an equiwidth d-dimensional grid histogram over the
// normalized unit cube.
type Histogram struct {
	cfg       Config
	tbl       *table.Table
	dim       int
	binsPerD  int
	counts    []float64 // cell densities as fractions of the table
	totalRows int
	rebuilds  int
}

// New builds the histogram with an initial scan of the table.
func New(tbl *table.Table, cfg Config) (*Histogram, error) {
	if cfg.Buckets < 1 {
		return nil, fmt.Errorf("scanhist: Buckets must be positive, got %d", cfg.Buckets)
	}
	if cfg.RefreshFraction < 0 || cfg.RefreshFraction > 1 {
		return nil, fmt.Errorf("scanhist: RefreshFraction %g outside [0,1]", cfg.RefreshFraction)
	}
	if cfg.RefreshFraction == 0 {
		cfg.RefreshFraction = DefaultRefreshFraction
	}
	dim := tbl.Schema().Dim()
	bins := intRoot(cfg.Buckets, dim)
	h := &Histogram{cfg: cfg, tbl: tbl, dim: dim, binsPerD: bins}
	h.Rebuild()
	return h, nil
}

// intRoot returns floor(n^(1/d)), at least 1.
func intRoot(n, d int) int {
	if d <= 0 {
		return 1
	}
	b := 1
	for {
		p := 1
		overflow := false
		for i := 0; i < d; i++ {
			p *= b + 1
			if p > n {
				overflow = true
				break
			}
		}
		if overflow {
			break
		}
		b++
	}
	if b < 1 {
		b = 1
	}
	return b
}

// ParamCount returns the number of grid cells.
func (h *Histogram) ParamCount() int { return len(h.counts) }

// Rebuild rescans the table, repopulating all cells, and resets the
// table's modification counter.
func (h *Histogram) Rebuild() {
	cells := 1
	for i := 0; i < h.dim; i++ {
		cells *= h.binsPerD
	}
	counts := make([]float64, cells)
	schema := h.tbl.Schema()
	n := 0
	h.tbl.Scan(func(_ int, tuple []float64) {
		idx := 0
		for c := 0; c < h.dim; c++ {
			x := schema.Normalize(c, tuple[c])
			bin := int(x * float64(h.binsPerD))
			if bin >= h.binsPerD {
				bin = h.binsPerD - 1
			}
			idx = idx*h.binsPerD + bin
		}
		counts[idx]++
		n++
	})
	if n > 0 {
		for i := range counts {
			counts[i] /= float64(n)
		}
	}
	h.counts = counts
	h.totalRows = n
	h.rebuilds++
	h.tbl.ResetModified()
}

// MaybeRefresh rebuilds if the table changed beyond the refresh threshold;
// it returns whether a rebuild happened. Callers invoke this on the update
// path (Figure 5's drift loop).
func (h *Histogram) MaybeRefresh() bool {
	if h.tbl.ModifiedFraction() > h.cfg.RefreshFraction {
		h.Rebuild()
		return true
	}
	return false
}

// Estimate returns the histogram estimate for a normalized box, assuming
// uniformity within each grid cell.
func (h *Histogram) Estimate(box geom.Box) (float64, error) {
	if box.Dim() != h.dim {
		return 0, fmt.Errorf("scanhist: query box has dim %d, want %d", box.Dim(), h.dim)
	}
	b := box.Clip(geom.Unit(h.dim))
	if b.IsEmpty() || h.totalRows == 0 {
		return 0, nil
	}
	// Per-dimension overlap fractions with the bins the box touches, then a
	// product walk over the touched sub-grid.
	type span struct {
		lo, hi int       // touched bin range (inclusive)
		frac   []float64 // overlap fraction per touched bin
	}
	spans := make([]span, h.dim)
	w := 1.0 / float64(h.binsPerD)
	for c := 0; c < h.dim; c++ {
		lo := int(b.Lo[c] / w)
		hi := int(b.Hi[c] / w)
		if hi >= h.binsPerD {
			hi = h.binsPerD - 1
		}
		if lo >= h.binsPerD {
			lo = h.binsPerD - 1
		}
		sp := span{lo: lo, hi: hi, frac: make([]float64, hi-lo+1)}
		for bin := lo; bin <= hi; bin++ {
			binLo := float64(bin) * w
			binHi := binLo + w
			ov := minF(b.Hi[c], binHi) - maxF(b.Lo[c], binLo)
			if ov < 0 {
				ov = 0
			}
			sp.frac[bin-lo] = ov / w
		}
		spans[c] = sp
	}
	var est float64
	var walk func(c int, cell int, frac float64)
	walk = func(c, cell int, frac float64) {
		if frac == 0 {
			return
		}
		if c == h.dim {
			est += h.counts[cell] * frac
			return
		}
		sp := spans[c]
		for bin := sp.lo; bin <= sp.hi; bin++ {
			walk(c+1, cell*h.binsPerD+bin, frac*sp.frac[bin-sp.lo])
		}
	}
	walk(0, 0, 1)
	if est > 1 {
		est = 1
	}
	return est, nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
