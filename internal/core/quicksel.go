// Package core implements QuickSel's selectivity-learning model: a uniform
// mixture model (UMM) over hyperrectangular subpopulations, trained by the
// min-difference-from-uniform quadratic program of §4 and queried by the
// closed-form estimator of §3.2.
//
// All geometry is in the normalized unit cube [0,1)^d; callers lower raw
// predicates through internal/predicate first. The model is deliberately
// small-surface: Observe records a (box, selectivity) pair, Train fits the
// subpopulation weights, Estimate evaluates a new box.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"quicksel/internal/geom"
	"quicksel/internal/linalg"
	"quicksel/internal/par"
	"quicksel/internal/qp"
)

// Defaults from the paper.
const (
	// DefaultSubpopsPerQuery scales the number of subpopulations with the
	// number of observed queries: m = min(4·n, DefaultMaxSubpops) (§3.3).
	DefaultSubpopsPerQuery = 4
	// DefaultMaxSubpops caps the model size (§3.3, footnote 9).
	DefaultMaxSubpops = 4000
	// DefaultPointsPerPredicate is the number of workload-aware points
	// generated inside each observed predicate ("QuickSel limits the number
	// to 10 since generating more than 10 points did not improve accuracy").
	DefaultPointsPerPredicate = 10
	// DefaultNearestCenters sizes each subpopulation box by the average
	// distance to this many closest centers (§3.3 step 3).
	DefaultNearestCenters = 10
	// DefaultMergeThreshold is the Jaccard overlap above which the
	// observation coreset merges two feedback records when MaxObservations
	// caps the history. The mixture is tolerant of collapsing near-duplicate
	// boxes: at 0.9 overlap the merged box differs from either original by
	// under 10% of their common volume.
	DefaultMergeThreshold = 0.9
)

// Config tunes the model. The zero value of every field selects the paper's
// default. Its JSON form is the "config" of a persisted Snapshot, so a
// field's tag is part of the snapshot format.
type Config struct {
	Dim                int     `json:"dim"`                     // dimensionality of the normalized domain (required)
	SubpopsPerQuery    int     `json:"subpops_per_query"`       // m = SubpopsPerQuery·n, before capping
	MaxSubpops         int     `json:"max_subpops"`             // hard cap on m
	FixedSubpops       int     `json:"fixed_subpops,omitempty"` // if >0, m is fixed at this value (Fig 7c mode)
	PointsPerPredicate int     `json:"points_per_predicate"`    // workload-aware points per observed query
	NearestCenters     int     `json:"nearest_centers"`         // neighbours used to size each subpopulation
	Lambda             float64 `json:"lambda"`                  // penalty weight of Problem 3
	Seed               int64   `json:"seed"`                    // PRNG seed; same seed + same stream ⇒ same model
	// UseIterativeSolver switches training to the projected-gradient QP of
	// internal/qp, standing in for the "Standard QP" baseline in Figure 6
	// and the solver ablation. Off by default (analytic solve).
	UseIterativeSolver bool `json:"use_iterative_solver,omitempty"`
	// Workers bounds the goroutines used by Train's parallel kernels (the
	// nearest-center radii, Q-matrix assembly, the Gram product, the blocked
	// Cholesky), in GaussianModel as in Model: 0 = GOMAXPROCS, 1 =
	// sequential. Every worker count produces bit-identical subpopulation
	// weights; the knob trades cores for wall clock only. It is persisted
	// anyway, so a restored model (and the serving daemon's snapshot-clone
	// retraining path) keeps the operator's parallelism cap.
	Workers int `json:"workers,omitempty"`
	// WarmStart keeps the analytic solver's Cholesky factorization (and its
	// ridge) between training runs. While the subpopulation set is frozen —
	// at the MaxSubpops cap or under FixedSubpops — a small feedback batch
	// retrains by rank-1 updates in O(batch·m²) instead of refactoring in
	// O(m³); larger batches and any change to the subpopulation budget fall
	// back to the full blocked factorization. Warm retrains match full
	// retrains to solver rounding, not bit-for-bit. Ignored by the
	// iterative solver. Snapshots carry the setting but not the
	// factorization, which is O(m²) floats and cheaper to rebuild than to
	// ship, so a restored model's first retrain is always full.
	WarmStart bool `json:"warm_start,omitempty"`
	// MaxObservations caps the retained feedback history with the coreset
	// merge/evict pass: an incoming observation whose box overlaps a
	// retained one above MergeThreshold (Jaccard) merges into it
	// (weighted-average corners and selectivity, summed weight); otherwise
	// the minimum-weight record is evicted to make room. 0 keeps the full
	// history (paper behaviour).
	MaxObservations int `json:"max_observations,omitempty"`
	// MergeThreshold is the Jaccard overlap in (0,1] above which the
	// coreset merges two observations. 0 selects DefaultMergeThreshold.
	// Only meaningful when MaxObservations > 0.
	MergeThreshold float64 `json:"merge_threshold,omitempty"`
}

// validate rejects a configuration New cannot build and Restore must not
// accept from a snapshot: a non-positive Dim, a negative, NaN or infinite
// Lambda (the solve fails on it, and JSON cannot encode it), a negative
// count, or a MergeThreshold outside [0,1].
func (c Config) validate() error {
	if c.Dim < 1 {
		return fmt.Errorf("Dim must be >= 1, got %d", c.Dim)
	}
	if !(c.Lambda >= 0) || math.IsInf(c.Lambda, 1) {
		return fmt.Errorf("Lambda must be finite and >= 0, got %g", c.Lambda)
	}
	if c.FixedSubpops < 0 || c.SubpopsPerQuery < 0 || c.MaxSubpops < 0 ||
		c.PointsPerPredicate < 0 || c.NearestCenters < 0 || c.Workers < 0 ||
		c.MaxObservations < 0 {
		return errors.New("negative configuration value")
	}
	if !(c.MergeThreshold >= 0 && c.MergeThreshold <= 1) {
		return fmt.Errorf("MergeThreshold %g outside [0,1]", c.MergeThreshold)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.SubpopsPerQuery == 0 {
		c.SubpopsPerQuery = DefaultSubpopsPerQuery
	}
	if c.MaxSubpops == 0 {
		c.MaxSubpops = DefaultMaxSubpops
	}
	if c.PointsPerPredicate == 0 {
		c.PointsPerPredicate = DefaultPointsPerPredicate
	}
	if c.NearestCenters == 0 {
		c.NearestCenters = DefaultNearestCenters
	}
	if c.Lambda == 0 {
		c.Lambda = qp.DefaultLambda
	}
	if c.MaxObservations > 0 && c.MergeThreshold == 0 {
		c.MergeThreshold = DefaultMergeThreshold
	}
	return c
}

// observation is one training record (P_i, s_i), with its pre-generated
// workload-aware points (§3.3 step 1). weight counts the raw feedback
// records the coreset has collapsed into this one (1 when uncoalesced); the
// QP weighs the record's consistency constraint by it.
type observation struct {
	box    geom.Box
	sel    float64
	weight float64
	points [][]float64
}

// Model is QuickSel's trainable uniform mixture model. It is not safe for
// concurrent mutation; wrap with the public quicksel.Estimator for a
// synchronized facade. Once trained, Estimate and EstimateUnion write
// nothing, so goroutines may call them concurrently while none mutates the
// model.
type Model struct {
	cfg  Config
	rng  *rand.Rand
	src  *countingSource // the stream behind rng; its count makes snapshots resume the PRNG exactly
	unit geom.Box

	// defaultPoints are the workload-aware points of the default query
	// (P0, 1) over the whole domain (§2.2: "we can conceptually consider a
	// default query (P0, 1)"). Including them in the center pool guarantees
	// some subpopulations cover regions no predicate has touched, so the
	// normalization constraint Σw = 1 never conflicts with localized
	// observations.
	defaultPoints [][]float64

	observations []observation

	// Trained state. subpops holds the subpopulations G_j of the last full
	// train and invVol their reciprocal volumes 1/|G_j|, one per G_j; both
	// are built once per full train, read by assembly, warm-start rows,
	// compile and Snapshot, and never mutated afterwards, so Clone shares
	// them. A nil subpops is the uniform prior.
	subpops *geom.BoxSet
	invVol  []float64
	weights []float64
	trained bool

	// compiled is the immutable serving form of the trained state (zero
	// weights pruned, weights pre-divided by volume, bounds in SoA arrays);
	// nil when untrained, uniform, or all-zero-weight.
	compiled *compiledModel

	// Diagnostics for the experiment drivers.
	lastIters     int    // iterations of the iterative solver (0 for analytic)
	lastTrainMode string // TrainModeFull or TrainModeIncremental; "" before first Train

	// Warm-start state (Config.WarmStart): the solver factorization of the
	// last full train, the count of observations already folded into the
	// factorization (a prefix of m.observations), and the pending remove/add
	// edits the coreset recorded against that prefix. warm is nil when
	// warm-start is off or no full train has happened; snapshots do not
	// carry this state, so a restored model's first retrain is full.
	warm       *qp.WarmState
	warmObs    int
	warmDeltas []warmDelta
}

// countingSource wraps a rand.Source and counts Int63 draws. The count is
// the model's exact position in its deterministic pseudo-random stream, so
// a snapshot can record it and Restore can fast-forward a fresh source to
// the same position: random draws made after a restore are bit-identical
// to the draws the original model would have made had it kept running.
// Wrapping is transparent — the draw values themselves are unchanged.
type countingSource struct {
	src rand.Source
	n   uint64
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
}

// New returns an empty model over [0,1)^Dim.
func New(cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m := newModel(cfg.withDefaults(), 0)
	m.defaultPoints = make([][]float64, m.cfg.PointsPerPredicate)
	for i := range m.defaultPoints {
		p := make([]float64, m.cfg.Dim)
		for d := range p {
			p[d] = m.rng.Float64()
		}
		m.defaultPoints[i] = p
	}
	return m, nil
}

// newModel returns a model over cfg holding no observations or trained
// state, with its PRNG positioned draws values into cfg.Seed's stream: 0
// for a new model, the recorded count for a restored or cloned one, so its
// later draws are the ones the original would have made.
func newModel(cfg Config, draws uint64) *Model {
	src := &countingSource{src: rand.NewSource(cfg.Seed)}
	for i := uint64(0); i < draws; i++ {
		src.src.Int63() // fast-forward without inflating the count
	}
	src.n = draws
	return &Model{
		cfg:  cfg,
		rng:  rand.New(src),
		src:  src,
		unit: geom.Unit(cfg.Dim),
	}
}

// Dim returns the model's dimensionality.
func (m *Model) Dim() int { return m.cfg.Dim }

// NumObserved returns the number of recorded training queries.
func (m *Model) NumObserved() int { return len(m.observations) }

// NeedsTraining reports whether the next Estimate would run a training
// pass, and so write: observations have arrived since the last run, or the
// model has never been fitted (the pass then fits the uniform prior).
func (m *Model) NeedsTraining() bool { return !m.trained }

// ParamCount returns the number of model parameters (subpopulation
// weights) of the last trained model; 0 before training.
func (m *Model) ParamCount() int { return len(m.weights) }

// Weights returns a copy of the trained subpopulation weights.
func (m *Model) Weights() []float64 {
	out := make([]float64, len(m.weights))
	copy(out, m.weights)
	return out
}

// Subpopulations returns a copy of the trained subpopulation boxes.
func (m *Model) Subpopulations() []geom.Box {
	out := make([]geom.Box, len(m.invVol))
	for i := range out {
		out[i] = m.subpops.Box(i)
	}
	return out
}

// SolverIterations reports the iterative solver's iteration count of the
// last Train call (0 when the analytic path was used).
func (m *Model) SolverIterations() int { return m.lastIters }

// Observe records one (predicate box, true selectivity) pair in normalized
// coordinates and invalidates the trained state. Selectivities are clamped
// to [0,1]; an invalid box is rejected.
func (m *Model) Observe(box geom.Box, sel float64) error {
	if box.Dim() != m.cfg.Dim {
		return fmt.Errorf("core: observed box has dim %d, model has %d", box.Dim(), m.cfg.Dim)
	}
	if err := box.Validate(); err != nil {
		return fmt.Errorf("core: observed box: %w", err)
	}
	if math.IsNaN(sel) {
		return errors.New("core: NaN selectivity")
	}
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	b := box.Clip(m.unit)
	obs := observation{box: b, sel: sel, weight: 1}
	// Workload-aware points (§3.3 step 1): random points inside the
	// predicate box, drawn once at observation time for determinism.
	if !b.IsEmpty() {
		obs.points = make([][]float64, m.cfg.PointsPerPredicate)
		for i := range obs.points {
			p := make([]float64, m.cfg.Dim)
			for d := 0; d < m.cfg.Dim; d++ {
				p[d] = b.Lo[d] + m.rng.Float64()*(b.Hi[d]-b.Lo[d])
			}
			obs.points[i] = p
		}
	}
	if m.cfg.MaxObservations > 0 && m.coresetAbsorb(obs) {
		m.trained = false
		return nil
	}
	m.observations = append(m.observations, obs)
	m.trained = false
	return nil
}

// targetSubpops returns the m of §3.3 for the current observation count.
func (m *Model) targetSubpops() int {
	if m.cfg.FixedSubpops > 0 {
		return m.cfg.FixedSubpops
	}
	t := m.cfg.SubpopsPerQuery * len(m.observations)
	if t > m.cfg.MaxSubpops {
		t = m.cfg.MaxSubpops
	}
	return t
}

// Train fits the subpopulation weights to the observed workload. When
// warm-start applies (Config.WarmStart, frozen subpopulation set, small
// pending batch) it re-solves from the kept factorization in O(batch·m²);
// otherwise it regenerates the subpopulations and solves the QP of Problem 3
// from scratch. Training with zero observations resets the model to the
// uniform prior.
func (m *Model) Train() error {
	if m.warmEligible() && m.trainIncremental() == nil {
		return nil
	}
	// An incremental failure (a downdate that lost definiteness, a
	// non-finite solve) leaves the warm state stale; the full path drops it
	// and rebuilds everything from the observations, which remain intact.
	return m.trainFull()
}

// trainFull is the cold path: regenerate subpopulations, assemble, solve.
func (m *Model) trainFull() error {
	m.setWarm(nil) // a kept factorization belongs to the subpopulations replaced here
	var centers [][]float64
	if len(m.observations) > 0 {
		centers = m.sampleCenters(m.targetSubpops())
	}
	if len(centers) == 0 {
		// No observations, or all observed predicates were empty boxes: the
		// model is the uniform prior.
		m.subpops, m.invVol, m.weights, m.compiled = nil, nil, nil, nil
		m.trained = true
		m.lastIters = 0
		m.lastTrainMode = TrainModeFull
		return nil
	}
	m.setSubpops(m.sizeSubpopulations(centers))

	q, a, s := m.assemble()
	prob := &qp.Problem{Q: q, A: a, S: s, Lambda: m.cfg.Lambda, Workers: m.cfg.Workers}
	if m.cfg.UseIterativeSolver {
		res, err := qp.SolveIterative(prob, qp.IterativeOptions{Project: true})
		if err != nil {
			return fmt.Errorf("core: iterative training: %w", err)
		}
		m.weights, m.lastIters = res.W, res.Iters
	} else {
		w, ws, err := qp.SolveAnalytic(prob)
		if err != nil {
			return fmt.Errorf("core: analytic training: %w", err)
		}
		m.weights, m.lastIters = w, 0
		if m.cfg.WarmStart {
			m.setWarm(ws)
		}
	}
	m.compiled = compile(m.subpops, m.weights)
	m.trained = true
	m.lastTrainMode = TrainModeFull
	return nil
}

// setSubpops installs a trained subpopulation set and its reciprocal
// volumes.
func (m *Model) setSubpops(boxes []geom.Box) {
	m.subpops = geom.BoxSetOf(boxes)
	m.invVol = make([]float64, len(boxes))
	for i := range m.invVol {
		m.invVol[i] = 1 / m.subpops.Volume(i)
	}
}

// sampleCenters pools the workload-aware points of all observations —
// including the default query's domain-wide points — and subsamples target
// of them without replacement (§3.3 step 2).
func (m *Model) sampleCenters(target int) [][]float64 {
	var pool [][]float64
	pool = append(pool, m.defaultPoints...)
	for _, o := range m.observations {
		pool = append(pool, o.points...)
	}
	if len(pool) <= target {
		return pool
	}
	// Partial Fisher-Yates: the first target entries are a uniform sample.
	for i := 0; i < target; i++ {
		j := i + m.rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:target]
}

// sizeSubpopulations builds one box per center, sized by the average
// distance to the NearestCenters closest other centers (§3.3 step 3) so
// neighbouring subpopulations slightly overlap.
func (m *Model) sizeSubpopulations(centers [][]float64) []geom.Box {
	radii := centerRadii(centers, m.cfg.NearestCenters, m.cfg.Workers)
	boxes := make([]geom.Box, len(centers))
	for i, c := range centers {
		hw := make([]float64, m.cfg.Dim)
		for d := range hw {
			hw[d] = radii[i]
		}
		boxes[i] = geom.CenteredBox(c, hw, m.unit)
	}
	return boxes
}

// assemble forms the QP data of Theorem 1. Row 0 of A is the default query
// (P0, 1) over the whole domain, guaranteeing Σ w ≈ 1; rows 1..n are the
// observed queries.
//
// This is the O(m²·d) hot loop of training. It streams the subpopulations'
// flat SoA BoxSet, and rows of Q and A are computed in parallel: every
// matrix entry is an independent product, and each worker chunk writes
// disjoint rows, so the assembled matrices are bit-identical for every
// worker count.
func (m *Model) assemble() (q, a *linalg.Matrix, s []float64) {
	set, invVol := m.subpops, m.invVol
	mm := set.Len()
	workers := par.Workers(m.cfg.Workers)
	q = linalg.NewMatrix(mm, mm)
	par.For(workers, mm, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := q.Data[i*mm:]
			row[i] = invVol[i]
			for j := i + 1; j < mm; j++ {
				row[j] = set.IntersectionVolume(i, j) * invVol[i] * invVol[j]
			}
		}
	})
	// Mirror the strict lower triangle; chunks write disjoint columns.
	par.For(workers, mm, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := i + 1; j < mm; j++ {
				q.Data[j*mm+i] = q.Data[i*mm+j]
			}
		}
	})
	n := len(m.observations)
	a = linalg.NewMatrix(n+1, mm)
	s = make([]float64, n+1)
	s[0] = 1
	row0 := a.Row(0)
	for j := range row0 {
		row0[j] = 1 // subpopulations live inside B0, so |B0∩Gj|/|Gj| = 1
	}
	par.For(workers, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o := &m.observations[i]
			s[i+1] = o.sel
			row := a.Row(i + 1)
			m.constraintRowInto(row, o.box)
			// A coreset-merged record stands for weight raw observations;
			// scaling its row and selectivity by √weight makes the penalty
			// term count it weight times (weighted least squares). The
			// weight==1 case skips the multiply so uncoalesced models keep
			// their historical bit-exact weights.
			if o.weight != 1 {
				root := math.Sqrt(o.weight)
				for j := range row {
					row[j] *= root
				}
				s[i+1] = root * o.sel
			}
		}
	})
	return q, a, s
}

// ensureTrained trains lazily so Estimate can be called right after Observe.
func (m *Model) ensureTrained() error {
	if m.trained {
		return nil
	}
	return m.Train()
}

// Estimate returns the model's selectivity estimate for a normalized box,
// clamped to [0,1]. With no trained subpopulations the model is the uniform
// prior, whose estimate is the volume of the box clipped to the unit cube
// (|B|/|B0| with |B0| = 1). A box with a NaN corner is an error, as it is
// for Observe.
//
// The hot path is allocation-free and, on a trained model, writes nothing:
// the raw query corners are evaluated against the compiled (pruned,
// pre-divided, SoA) form of the trained mixture. No clip is needed because
// every subpopulation lies inside the unit cube, so min and max against a
// raw corner equal min and max against the clipped one.
func (m *Model) Estimate(box geom.Box) (float64, error) {
	if box.Dim() != m.cfg.Dim {
		return 0, fmt.Errorf("core: query box has dim %d, model has %d", box.Dim(), m.cfg.Dim)
	}
	if err := box.CheckNaN(); err != nil {
		return 0, fmt.Errorf("core: query box: %w", err)
	}
	if err := m.ensureTrained(); err != nil {
		return 0, err
	}
	if m.subpops == nil {
		// Uniform prior: the volume of the box clipped to the unit cube.
		v := 1.0
		for k, lo := range box.Lo {
			side := min(box.Hi[k], 1) - max(lo, 0)
			if side <= 0 {
				return 0, nil
			}
			v *= side
		}
		return v, nil
	}
	var est float64
	if m.compiled != nil {
		est = m.compiled.estimate(box.Lo, box.Hi)
	}
	if est < 0 {
		est = 0
	}
	if est > 1 {
		est = 1
	}
	return est, nil
}

// EstimateUnion estimates the selectivity of a union of pairwise-disjoint
// boxes (the lowered form of predicates with disjunctions/negations); by
// disjointness the estimates are additive.
func (m *Model) EstimateUnion(boxes []geom.Box) (float64, error) {
	var est float64
	for _, b := range boxes {
		e, err := m.Estimate(b)
		if err != nil {
			return 0, err
		}
		est += e
	}
	if est > 1 {
		est = 1
	}
	return est, nil
}
