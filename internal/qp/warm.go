package qp

import (
	"fmt"
	"math"

	"quicksel/internal/linalg"
)

// WarmState is the reusable half of an analytic solve: the Cholesky factor
// of M = Q + λAᵀA (including the ridge linalg.FactorSPD escalated to), the
// right-hand side λAᵀs, and the penalty weight. As long as the
// subpopulations — and therefore Q and the columns of A — stay fixed, each
// new observation row a contributes the rank-1 term λw·aaᵀ to M and λw·s·a
// to the right-hand side, so re-solving after a batch of r feedback edits
// costs O(r·m²) instead of the O(m³/3) refactorization.
type WarmState struct {
	chol   *linalg.Cholesky
	rhs    []float64
	lambda float64
	ridge  float64
	edits  int // rank-1 edits applied since the full factorization
}

// Dim returns the number of subpopulation weights the state solves for.
func (ws *WarmState) Dim() int { return ws.chol.N() }

// Ridge returns the diagonal ridge baked into the kept factorization.
func (ws *WarmState) Ridge() float64 { return ws.ridge }

// Edits returns the number of rank-1 edits applied since the last full
// factorization; callers bound it to limit rounding drift.
func (ws *WarmState) Edits() int { return ws.edits }

// AddRow folds one weighted constraint row (a, s, w) into the system:
// M += λw·aaᵀ, rhs += λw·s·a. a is not modified.
func (ws *WarmState) AddRow(a []float64, s, weight float64) {
	ws.AddRows([][]float64{a}, []float64{s}, []float64{weight})
}

// AddRows folds the constraint rows (a[r], s[r], weight[r]) in order, with
// the bits successive AddRow calls would give, in one sweep of the factor
// (linalg.Cholesky.Update) instead of one per row. The rows are not
// modified.
func (ws *WarmState) AddRows(a [][]float64, s, weight []float64) {
	if len(s) != len(a) || len(weight) != len(a) {
		panic(fmt.Sprintf("qp: AddRows of %d rows with %d selectivities and %d weights", len(a), len(s), len(weight)))
	}
	us := make([][]float64, len(a))
	for r, row := range a {
		root := math.Sqrt(ws.lambda * weight[r])
		u := make([]float64, len(row))
		for i, v := range row {
			u[i] = root * v
		}
		us[r] = u
	}
	ws.chol.Update(us...)
	for r, row := range a {
		rs := ws.lambda * weight[r] * s[r]
		for i, v := range row {
			ws.rhs[i] += rs * v
		}
	}
	ws.edits += len(a)
}

// RemoveRow subtracts a previously added constraint row: M −= λw·aaᵀ,
// rhs −= λw·s·a. It fails with linalg.ErrNotSPD when the downdate would
// lose positive definiteness (e.g. the row was never part of the system);
// the state is then stale and must be discarded — the core layer falls back
// to a full refactorization.
func (ws *WarmState) RemoveRow(a []float64, s, weight float64) error {
	scale := ws.lambda * weight
	root := math.Sqrt(scale)
	u := make([]float64, len(a))
	for i, v := range a {
		u[i] = root * v
	}
	if err := ws.chol.Downdate(u); err != nil {
		return fmt.Errorf("qp: warm downdate: %w", err)
	}
	rs := scale * s
	for i, v := range a {
		ws.rhs[i] -= rs * v
	}
	ws.edits++
	return nil
}

// Solve returns the weights of the current (edited) system via two
// triangular substitutions — O(m²).
func (ws *WarmState) Solve() []float64 {
	return ws.chol.Solve(ws.rhs)
}

// Clone returns an independent deep copy, so a cloned model can keep
// retraining incrementally without aliasing the original's factorization.
func (ws *WarmState) Clone() *WarmState {
	return &WarmState{
		chol:   ws.chol.Clone(),
		rhs:    append([]float64(nil), ws.rhs...),
		lambda: ws.lambda,
		ridge:  ws.ridge,
		edits:  ws.edits,
	}
}
