package estimator

import (
	"encoding/json"
	"fmt"

	"quicksel/internal/core"
	"quicksel/internal/geom"
)

// quickselBackend adapts the paper's mixture model (internal/core) to the
// Backend contract. It is the default method and the accuracy/parameter
// sweet spot of the evaluation: training pays one SPD solve, estimates run
// on the compiled allocation-free path.
type quickselBackend struct {
	m *core.Model
}

func newQuickSel(cfg Config) (*quickselBackend, error) {
	m, err := core.New(cfg.Config)
	if err != nil {
		return nil, err
	}
	return &quickselBackend{m: m}, nil
}

// NewQuickSelFromModelSnapshot rebuilds the QuickSel backend from a core
// model snapshot. The public package uses this to keep the model state as a
// typed field of its snapshot envelope rather than an opaque blob.
func NewQuickSelFromModelSnapshot(s *core.Snapshot) (Backend, error) {
	m, err := core.Restore(s)
	if err != nil {
		return nil, err
	}
	return &quickselBackend{m: m}, nil
}

// ModelSnapshot exposes the typed core snapshot when the backend is the
// QuickSel method; it returns nil for every other backend.
func ModelSnapshot(b Backend) *core.Snapshot {
	if qb, ok := b.(*quickselBackend); ok {
		return qb.m.Snapshot()
	}
	return nil
}

func (b *quickselBackend) Method() string { return QuickSel }
func (b *quickselBackend) Dim() int       { return b.m.Dim() }

func (b *quickselBackend) Observe(box geom.Box, sel float64) error {
	return b.m.Observe(box, sel)
}

func (b *quickselBackend) Estimate(boxes []geom.Box) (float64, error) {
	return b.m.EstimateUnion(boxes)
}

func (b *quickselBackend) Train() error { return b.m.Train() }

func (b *quickselBackend) fitPending() bool { return b.m.NeedsTraining() }

func (b *quickselBackend) trainMode() string { return b.m.TrainMode() }

// cloneBackend deep-copies the model in process, keeping the warm-start
// factorization a snapshot round trip would drop.
func (b *quickselBackend) cloneBackend() Backend { return &quickselBackend{m: b.m.Clone()} }

func (b *quickselBackend) Snapshot() (json.RawMessage, error) {
	return json.Marshal(b.m.Snapshot())
}

func restoreQuickSel(state json.RawMessage) (Backend, error) {
	var s core.Snapshot
	if err := json.Unmarshal(state, &s); err != nil {
		return nil, fmt.Errorf("estimator: decode quicksel state: %w", err)
	}
	return NewQuickSelFromModelSnapshot(&s)
}

func (b *quickselBackend) Stats() Stats {
	return Stats{Method: QuickSel, Observed: b.m.NumObserved(), Params: b.m.ParamCount()}
}
