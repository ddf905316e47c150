package core

import (
	"fmt"

	"quicksel/internal/geom"
	"quicksel/internal/qp"
)

// TrainFrozenForTest re-solves the QP over the current observations with the
// current subpopulations — no resampling, no warm state — via the cold
// analytic path. It is the reference the warm-vs-cold property tests compare
// against: an incremental retrain must reproduce this solve (same frozen
// subpopulations, same history) to solver rounding.
func (m *Model) TrainFrozenForTest() ([]float64, error) {
	if m.subpops == nil {
		return nil, fmt.Errorf("core: no subpopulations to freeze")
	}
	q, a, s := m.assemble()
	w, _, err := qp.SolveAnalytic(&qp.Problem{Q: q, A: a, S: s, Lambda: m.cfg.Lambda, Workers: m.cfg.Workers})
	return w, err
}

// CorruptWarmForTest queues a downdate of a heavy row that was never part of
// the system, so the next incremental train fails mid-flight and must fall
// back to the full path.
func (m *Model) CorruptWarmForTest() {
	m.warmDeltas = append(m.warmDeltas, warmDelta{box: geom.Unit(m.cfg.Dim), sel: 0.5, weight: 1e6})
}

// WarmStateForTest reports whether a warm factorization is currently held.
func (m *Model) WarmStateForTest() bool { return m.warm != nil }

// ObservationWeightsForTest returns the coreset weights of the retained
// history, in order.
func (m *Model) ObservationWeightsForTest() []float64 {
	out := make([]float64, len(m.observations))
	for i, o := range m.observations {
		out[i] = o.weight
	}
	return out
}
