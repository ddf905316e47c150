// Package isomer implements ISOMER-style max-entropy query-driven
// histograms [Srivastava et al., ICDE 2006], the paper's strongest baseline.
//
// Bucket creation follows the STHoles-style refinement of Figure 1: the
// histogram maintains an exact disjoint partition of the (normalized)
// domain, and every new observed predicate splits each partially-overlapping
// bucket into its inside part and up-to-2d outside slabs. The partition
// therefore guarantees the 0/1 overlap property iterative scaling requires
// (every bucket is fully inside or fully outside every observed predicate —
// Appendix B), and it exhibits the bucket-count explosion that motivates
// QuickSel (§2.3, Limitation 1).
//
// Bucket frequencies are computed either by iterative scaling (classic
// ISOMER) or by QuickSel's penalized quadratic program (the ISOMER+QP
// hybrid of §5.1). For the QP variant the disjointness of buckets makes Q
// diagonal, so the solve uses the Woodbury identity and costs O(n²m + n³)
// instead of O(m³).
//
// Trade-off: the strongest baseline accuracy in the paper's comparison —
// the max-entropy distribution honors every observation exactly when
// feasible — but the partition (and so memory and training time) grows
// multiplicatively with observed queries, the limitation that motivates
// QuickSel. quickseld serves it as methods "isomer" (published scaling
// update) and "maxent" (optimized incremental update) behind a serving
// bucket cap (internal/estimator).
package isomer

import (
	"errors"
	"fmt"
	"math"

	"quicksel/internal/geom"
	"quicksel/internal/linalg"
	"quicksel/internal/maxent"
	"quicksel/internal/qp"
)

// Solver selects the frequency-computation algorithm.
type Solver int

const (
	// IterativeScaling is classic ISOMER (maximum entropy).
	IterativeScaling Solver = iota
	// QuickSelQP combines ISOMER's buckets with QuickSel's penalized QP
	// (the ISOMER+QP baseline of §5.1).
	QuickSelQP
)

func (s Solver) String() string {
	switch s {
	case IterativeScaling:
		return "iterative-scaling"
	case QuickSelQP:
		return "quicksel-qp"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// DefaultMaxBuckets bounds partition growth. The paper measured 318,936
// buckets after 300 queries; the cap keeps worst-case memory bounded. When
// the cap is hit, new queries stop refining the partition (the paper's
// systems prune *queries* for the same reason — §1) and are recorded only
// if they satisfy the 0/1 property against the existing partition.
const DefaultMaxBuckets = 200000

// Config tunes the histogram. Its JSON form heads a persisted Snapshot.
type Config struct {
	Dim        int     `json:"dim"`
	Solver     Solver  `json:"solver"`
	MaxBuckets int     `json:"max_buckets"`      // 0 means DefaultMaxBuckets
	Lambda     float64 `json:"lambda,omitempty"` // QP penalty; 0 means qp.DefaultLambda
	// ScalingOptions tunes iterative scaling.
	ScalingIters int     `json:"scaling_iters,omitempty"` // 0 means 500
	ScalingTol   float64 `json:"scaling_tol,omitempty"`   // 0 means 1e-6
	// IncrementalScaling enables the optimized iterative-scaling update
	// (see maxent.Options.Incremental). Off by default so the baseline runs
	// the algorithm as published.
	IncrementalScaling bool `json:"incremental_scaling,omitempty"`
}

// Histogram is an ISOMER max-entropy histogram.
type Histogram struct {
	cfg     Config
	unit    geom.Box
	buckets []geom.Box // exact disjoint partition of the unit cube
	queries []obsQuery
	weights []float64
	trained bool
	frozen  bool // partition refinement stopped (bucket cap reached)
}

type obsQuery struct {
	box geom.Box
	sel float64
}

// New returns a histogram whose partition initially contains the single
// bucket B0 (the whole normalized domain).
func New(cfg Config) (*Histogram, error) {
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("isomer: Dim must be >= 1, got %d", cfg.Dim)
	}
	if cfg.MaxBuckets == 0 {
		cfg.MaxBuckets = DefaultMaxBuckets
	}
	if cfg.MaxBuckets < 1 {
		return nil, fmt.Errorf("isomer: MaxBuckets must be positive, got %d", cfg.MaxBuckets)
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = qp.DefaultLambda
	}
	if cfg.ScalingIters == 0 {
		cfg.ScalingIters = 500
	}
	if cfg.ScalingTol == 0 {
		cfg.ScalingTol = 1e-6
	}
	unit := geom.Unit(cfg.Dim)
	return &Histogram{
		cfg:     cfg,
		unit:    unit,
		buckets: []geom.Box{unit},
	}, nil
}

// Dim returns the dimensionality of the histogram's domain.
func (h *Histogram) Dim() int { return h.cfg.Dim }

// NumBuckets returns the current partition size.
func (h *Histogram) NumBuckets() int { return len(h.buckets) }

// ParamCount returns the number of model parameters (bucket frequencies),
// the quantity Figure 4 tracks.
func (h *Histogram) ParamCount() int { return len(h.buckets) }

// NumObserved returns the number of recorded queries.
func (h *Histogram) NumObserved() int { return len(h.queries) }

// NeedsTraining reports whether the next Estimate would run a training
// pass, and so write: queries have arrived since the last scaling solve, or
// the histogram has never been fitted (the pass then spreads mass by
// volume).
func (h *Histogram) NeedsTraining() bool { return !h.trained }

// Observe records a (predicate box, selectivity) pair, refining the bucket
// partition so the box is exactly covered by whole buckets.
func (h *Histogram) Observe(box geom.Box, sel float64) error {
	if box.Dim() != h.cfg.Dim {
		return fmt.Errorf("isomer: observed box has dim %d, want %d", box.Dim(), h.cfg.Dim)
	}
	if err := box.Validate(); err != nil {
		return fmt.Errorf("isomer: observed box: %w", err)
	}
	if math.IsNaN(sel) {
		return errors.New("isomer: NaN selectivity")
	}
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	b := box.Clip(h.unit)
	if b.IsEmpty() {
		return nil
	}
	if !h.frozen {
		h.refine(b)
		if len(h.buckets) >= h.cfg.MaxBuckets {
			h.frozen = true
		}
	} else if !h.exactlyCovered(b) {
		// Bucket cap reached and this query would need a partial overlap,
		// which iterative scaling cannot represent (Appendix B): drop it,
		// mirroring the query pruning of the original systems.
		return nil
	}
	h.queries = append(h.queries, obsQuery{box: b, sel: sel})
	h.trained = false
	return nil
}

// refine splits every bucket that partially overlaps b into its
// intersection with b plus the outside slabs.
func (h *Histogram) refine(b geom.Box) {
	out := h.buckets[:0:0] // fresh backing array; old slice aliases queries of history? no, boxes are immutable
	for _, bucket := range h.buckets {
		inter, ok := bucket.Intersect(b)
		if !ok || inter.Equal(bucket) {
			out = append(out, bucket)
			continue
		}
		out = append(out, inter)
		out = append(out, geom.Subtract(bucket, b)...)
	}
	h.buckets = out
}

// exactlyCovered reports whether b is exactly a union of whole buckets.
func (h *Histogram) exactlyCovered(b geom.Box) bool {
	var covered float64
	for _, bucket := range h.buckets {
		iv := bucket.IntersectionVolume(b)
		if iv == 0 {
			continue
		}
		if math.Abs(iv-bucket.Volume()) > 1e-12*bucket.Volume() {
			return false // partial overlap
		}
		covered += iv
	}
	return math.Abs(covered-b.Volume()) <= 1e-9*math.Max(b.Volume(), 1e-300)
}

// membership returns, for every query (prefixed by the default query over
// the whole domain), the bucket indices fully inside it. Bucket membership
// is decided by center containment, which is exact thanks to the partition
// invariant.
func (h *Histogram) membership() ([][]int, []float64) {
	members := make([][]int, len(h.queries)+1)
	sels := make([]float64, len(h.queries)+1)
	all := make([]int, len(h.buckets))
	for j := range all {
		all[j] = j
	}
	members[0] = all
	sels[0] = 1
	centers := make([][]float64, len(h.buckets))
	for j, b := range h.buckets {
		centers[j] = b.Center()
	}
	for i, q := range h.queries {
		var mem []int
		for j := range h.buckets {
			if q.box.Contains(centers[j]) {
				mem = append(mem, j)
			}
		}
		members[i+1] = mem
		sels[i+1] = q.sel
	}
	return members, sels
}

// Train computes bucket frequencies with the configured solver.
func (h *Histogram) Train() error {
	if len(h.queries) == 0 {
		// Max-entropy with only the default query: uniform per volume.
		h.weights = make([]float64, len(h.buckets))
		for j, b := range h.buckets {
			h.weights[j] = b.Volume()
		}
		h.trained = true
		return nil
	}
	members, sels := h.membership()
	// Zero-volume buckets (slivers from queries sharing a boundary, common
	// on discretized integer columns) are excluded from the solve and pinned
	// to weight 0: Estimate skips them — a bucket with no volume has no
	// density — so mass assigned to them would silently vanish, and their
	// floored volumes make the scaling products overflow to Inf and then
	// NaN, poisoning every weight.
	idx := make([]int, len(h.buckets)) // bucket -> compact solve index, -1 when degenerate
	var vols []float64
	for j, b := range h.buckets {
		if v := b.Volume(); v > 0 {
			idx[j] = len(vols)
			vols = append(vols, v)
		} else {
			idx[j] = -1
		}
	}
	if len(vols) < len(h.buckets) {
		compact := make([][]int, len(members))
		for i, mem := range members {
			kept := make([]int, 0, len(mem))
			for _, j := range mem {
				if idx[j] >= 0 {
					kept = append(kept, idx[j])
				}
			}
			compact[i] = kept
		}
		members = compact
	}
	var solved []float64
	switch h.cfg.Solver {
	case IterativeScaling:
		res, err := maxent.Solve(
			&maxent.Problem{Volumes: vols, Members: members, Sels: sels},
			maxent.Options{MaxIters: h.cfg.ScalingIters, Tol: h.cfg.ScalingTol, Incremental: h.cfg.IncrementalScaling},
		)
		if err != nil {
			return fmt.Errorf("isomer: %w", err)
		}
		solved = res.Weights
	case QuickSelQP:
		solved = solveDiagonalQP(vols, members, sels, h.cfg.Lambda)
	default:
		return fmt.Errorf("isomer: unknown solver %v", h.cfg.Solver)
	}
	if len(vols) == len(h.buckets) {
		h.weights = solved
	} else {
		h.weights = make([]float64, len(h.buckets))
		for j, c := range idx {
			if c >= 0 {
				h.weights[j] = solved[c]
			}
		}
	}
	h.trained = true
	return nil
}

// Estimate returns the histogram's estimate for a normalized box, clamped
// to [0,1]. An untrained histogram trains lazily.
func (h *Histogram) Estimate(box geom.Box) (float64, error) {
	if box.Dim() != h.cfg.Dim {
		return 0, fmt.Errorf("isomer: query box has dim %d, want %d", box.Dim(), h.cfg.Dim)
	}
	if !h.trained {
		if err := h.Train(); err != nil {
			return 0, err
		}
	}
	b := box.Clip(h.unit)
	var est float64
	for j, bucket := range h.buckets {
		w := h.weights[j]
		if w == 0 {
			continue
		}
		v := bucket.Volume()
		if v <= 0 {
			continue
		}
		est += w * bucket.IntersectionVolume(b) / v
	}
	if est < 0 {
		est = 0
	}
	if est > 1 {
		est = 1
	}
	return est, nil
}

// solveDiagonalQP solves min wᵀDw + λ‖Aw−s‖² where D = diag(1/v_j) and A is
// the 0/1 membership matrix, via the Woodbury identity:
//
//	w = λ(D + λAᵀA)⁻¹Aᵀs
//	(D + λAᵀA)⁻¹ = D⁻¹ − D⁻¹Aᵀ(I/λ + A D⁻¹ Aᵀ)⁻¹ A D⁻¹
//
// Cost: O(n²·m) to build the n×n kernel K plus one n×n solve, where n is
// the number of queries (small) and m the number of buckets (large).
func solveDiagonalQP(vols []float64, members [][]int, sels []float64, lambda float64) []float64 {
	m := len(vols)
	n := len(members)
	// u = Aᵀs ∈ R^m.
	u := make([]float64, m)
	for i, mem := range members {
		si := sels[i]
		for _, j := range mem {
			u[j] += si
		}
	}
	// K = I/λ + A D⁻¹ Aᵀ, K_ik = Σ_{j ∈ C_i ∩ C_k} v_j. Build via bucket →
	// query incidence to avoid repeated set intersections.
	incident := make([][]int32, m)
	for i, mem := range members {
		for _, j := range mem {
			incident[j] = append(incident[j], int32(i))
		}
	}
	k := linalg.NewMatrix(n, n)
	for j := 0; j < m; j++ {
		vj := vols[j]
		qs := incident[j]
		for a := 0; a < len(qs); a++ {
			for b := a; b < len(qs); b++ {
				k.Data[int(qs[a])*n+int(qs[b])] += vj
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k.Data[j*n+i] = k.Data[i*n+j]
		}
		k.Data[i*n+i] += 1 / lambda
	}
	// t = A D⁻¹ u ∈ R^n.
	t := make([]float64, n)
	for i, mem := range members {
		var s float64
		for _, j := range mem {
			s += vols[j] * u[j]
		}
		t[i] = s
	}
	ch, _, err := linalg.FactorSPD(k, 0)
	if err != nil {
		// K is SPD by construction; if the ridge cascade still fails, fall
		// back to frequencies proportional to volume (uniform).
		w := make([]float64, m)
		copy(w, vols)
		return w
	}
	y := ch.Solve(t)
	// w = λ·D⁻¹(u − Aᵀy), i.e. w_j = λ·v_j·(u_j − Σ_{i: j∈C_i} y_i).
	w := make([]float64, m)
	for j := 0; j < m; j++ {
		corr := 0.0
		for _, i := range incident[j] {
			corr += y[i]
		}
		w[j] = lambda * vols[j] * (u[j] - corr)
	}
	return w
}
