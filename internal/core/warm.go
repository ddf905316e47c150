package core

import (
	"errors"
	"math"

	"quicksel/internal/geom"
	"quicksel/internal/qp"
)

// Train modes reported by Model.TrainMode.
const (
	// TrainModeFull regenerated the subpopulations and refactored the QP
	// system from scratch (the paper's O(m³) path).
	TrainModeFull = "full"
	// TrainModeIncremental re-solved from the kept factorization by rank-1
	// updates (O(batch·m²)).
	TrainModeIncremental = "incremental"
)

const (
	// warmBatchDivisor bounds the incremental path to pending edits ≤
	// m/warmBatchDivisor: each rank-1 edit costs ~3m² flops against the
	// full factorization's m³/3, so at batch = m/4 the incremental path
	// still wins by ~4×, and beyond it the cold path's better cache
	// behaviour erodes the advantage.
	warmBatchDivisor = 4
	// warmMaxEditsFactor caps the rank-1 edits accumulated since the last
	// full factorization at warmMaxEditsFactor·m. Each hyperbolic/Givens
	// sweep adds rounding noise the factorization never repairs; forcing a
	// full refactorization every ~2m edits keeps the drift far below the
	// solver tolerance the property tests pin.
	warmMaxEditsFactor = 2
	// warmSweepRows caps the new observations folded per sweep of the
	// factor, which holds the sweep's rows and rotations to O(64·m) floats
	// however large the batch; successive sweeps give the bits of one.
	warmSweepRows = 64
)

// warmDelta is one pending edit against the observation prefix already
// folded into the warm factorization: the coreset merged or evicted a
// folded record, so its old row must be removed (add=false) and, for a
// merge, the coalesced row added back (add=true). Values are captured at
// edit time because slice indices shift as the history mutates.
type warmDelta struct {
	box    geom.Box
	sel    float64
	weight float64
	add    bool
}

// TrainMode reports how the last Train call fitted the model:
// TrainModeIncremental or TrainModeFull ("" before the first Train).
func (m *Model) TrainMode() string { return m.lastTrainMode }

// setWarm installs the factorization of a full analytic solve over every
// current observation as the warm state; nil drops it, so the next Train
// runs the full path.
func (m *Model) setWarm(ws *qp.WarmState) {
	m.warm, m.warmObs, m.warmDeltas = ws, len(m.observations), nil
}

// warmEligible reports whether the pending feedback can be folded into the
// kept factorization instead of retraining from scratch.
func (m *Model) warmEligible() bool {
	if m.warm == nil || !m.cfg.WarmStart || m.cfg.UseIterativeSolver {
		return false
	}
	// The factorization columns are the subpopulations; the incremental
	// path requires the §3.3 budget to be exactly the frozen set (at the
	// MaxSubpops cap, or FixedSubpops). A moving budget means Train must
	// regenerate subpopulations, which is a full solve by construction.
	mm := len(m.invVol)
	if m.targetSubpops() != mm {
		return false
	}
	edits := len(m.warmDeltas) + (len(m.observations) - m.warmObs)
	if edits == 0 {
		// Nothing pending: an explicit Train asks for a fresh fit, and the
		// historical behaviour (resampled subpopulations) is the full path.
		return false
	}
	if edits > mm/warmBatchDivisor {
		return false
	}
	if m.warm.Edits()+edits > warmMaxEditsFactor*mm {
		return false
	}
	return true
}

// constraintRowInto writes the QP constraint row of box b — the fraction of
// each subpopulation covered by b — into row. Assembly and the incremental
// path both build rows here, so the row removed for an evicted observation
// is bitwise the row a full assembly built for it.
func (m *Model) constraintRowInto(row []float64, b geom.Box) {
	for j := range row {
		row[j] = m.subpops.CornersIntersectionVolume(j, b.Lo, b.Hi) * m.invVol[j]
	}
}

// trainIncremental folds the pending coreset deltas, one at a time, and then
// the new observation suffix, up to warmSweepRows rows per sweep, into the
// warm factorization and re-solves. On error the warm state is stale; the caller falls back to the
// full path, which drops it.
func (m *Model) trainIncremental() error {
	row := make([]float64, len(m.invVol))
	for _, d := range m.warmDeltas {
		m.constraintRowInto(row, d.box)
		if d.add {
			m.warm.AddRow(row, d.sel, d.weight)
		} else if err := m.warm.RemoveRow(row, d.sel, d.weight); err != nil {
			return err
		}
	}
	for suffix := m.observations[m.warmObs:]; len(suffix) > 0; {
		chunk := suffix[:min(len(suffix), warmSweepRows)]
		suffix = suffix[len(chunk):]
		rows := make([][]float64, len(chunk))
		sels := make([]float64, len(chunk))
		weights := make([]float64, len(chunk))
		for r := range chunk {
			rows[r] = make([]float64, len(m.invVol))
			m.constraintRowInto(rows[r], chunk[r].box)
			sels[r], weights[r] = chunk[r].sel, chunk[r].weight
		}
		m.warm.AddRows(rows, sels, weights)
	}
	w := m.warm.Solve()
	for _, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("core: warm solve produced non-finite weights")
		}
	}
	m.weights = w
	m.compiled = compile(m.subpops, m.weights)
	m.trained = true
	m.lastIters = 0
	m.lastTrainMode = TrainModeIncremental
	m.warmObs = len(m.observations)
	m.warmDeltas = nil
	return nil
}

// coresetAbsorb runs the merge/evict pass for one incoming observation.
// It returns true when the observation merged into a retained record
// (weighted-average corners and selectivity, summed weight); false when the
// caller should append it — after evicting minimum-weight records to keep
// the history under MaxObservations.
func (m *Model) coresetAbsorb(obs observation) bool {
	if best := m.bestMergeTarget(obs.box); best >= 0 {
		m.mergeObservation(best, obs)
		return true
	}
	for len(m.observations) >= m.cfg.MaxObservations {
		m.evictObservation()
	}
	return false
}

// bestMergeTarget returns the index of the retained observation with the
// highest Jaccard overlap ≥ MergeThreshold against b, or -1.
func (m *Model) bestMergeTarget(b geom.Box) int {
	best, bestSim := -1, m.cfg.MergeThreshold
	for i := range m.observations {
		if sim := m.observations[i].box.Jaccard(b); sim >= bestSim {
			best, bestSim = i, sim
		}
	}
	return best
}

// mergeObservation coalesces incoming into the retained record at index i.
// The merged box takes the weighted average of the corners — it stays valid
// and inside the unit cube because both inputs are — and the selectivity the
// weighted mean, so k raw near-duplicate observations collapse into one
// record of weight k whose constraint approximates their sum. The target's
// workload-aware points are kept; the incoming points are dropped (the rng
// already advanced past them, so replay determinism is unaffected).
func (m *Model) mergeObservation(i int, incoming observation) {
	o := &m.observations[i]
	w1, w2 := o.weight, incoming.weight
	tot := w1 + w2
	d := m.cfg.Dim
	lo := make([]float64, d)
	hi := make([]float64, d)
	for k := 0; k < d; k++ {
		lo[k] = (w1*o.box.Lo[k] + w2*incoming.box.Lo[k]) / tot
		hi[k] = (w1*o.box.Hi[k] + w2*incoming.box.Hi[k]) / tot
	}
	merged := geom.NewBox(lo, hi)
	sel := (w1*o.sel + w2*incoming.sel) / tot
	if m.warm != nil && i < m.warmObs {
		m.warmDeltas = append(m.warmDeltas,
			warmDelta{box: o.box, sel: o.sel, weight: o.weight},
			warmDelta{box: merged, sel: sel, weight: tot, add: true})
	}
	o.box, o.sel, o.weight = merged, sel, tot
}

// evictObservation removes the minimum-weight (oldest on ties) record to
// make room, recording the removal against the warm factorization when the
// victim was already folded in.
func (m *Model) evictObservation() {
	idx := 0
	for i := 1; i < len(m.observations); i++ {
		if m.observations[i].weight < m.observations[idx].weight {
			idx = i
		}
	}
	o := m.observations[idx]
	if m.warm != nil && idx < m.warmObs {
		m.warmDeltas = append(m.warmDeltas, warmDelta{box: o.box, sel: o.sel, weight: o.weight})
		m.warmObs--
	}
	m.observations = append(m.observations[:idx], m.observations[idx+1:]...)
}

// Clone returns a deep copy of the model, including the warm-start
// factorization that snapshots cannot carry: the serving daemon's trainer
// clones the live model in process (instead of a snapshot round trip) so
// the clone-train-swap cycle keeps retraining incrementally. The clone's
// PRNG resumes the same deterministic stream position, so clone and
// original behave bit-identically from here on. The trained subpopulations,
// their reciprocal volumes, the weights and the compiled form are never
// mutated after a train, so the clone shares them.
func (m *Model) Clone() *Model {
	c := newModel(m.cfg, m.src.n)
	c.defaultPoints = copyPoints(m.defaultPoints)
	c.subpops, c.invVol, c.weights = m.subpops, m.invVol, m.weights
	c.trained = m.trained
	c.compiled = m.compiled
	c.lastIters = m.lastIters
	c.lastTrainMode = m.lastTrainMode
	c.warmObs = m.warmObs
	c.observations = make([]observation, len(m.observations))
	for i, o := range m.observations {
		c.observations[i] = observation{box: o.box.Clone(), sel: o.sel, weight: o.weight, points: copyPoints(o.points)}
	}
	if m.warm != nil {
		c.warm = m.warm.Clone()
	}
	if len(m.warmDeltas) > 0 {
		c.warmDeltas = make([]warmDelta, len(m.warmDeltas))
		for i, d := range m.warmDeltas {
			c.warmDeltas[i] = warmDelta{box: d.box.Clone(), sel: d.sel, weight: d.weight, add: d.add}
		}
	}
	return c
}
