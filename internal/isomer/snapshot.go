package isomer

import (
	"fmt"
	"math"

	"quicksel/internal/geom"
)

// SnapshotQuery is one serialized observed query.
type SnapshotQuery struct {
	geom.Box
	Sel float64 `json:"sel"`
}

// Snapshot is the complete serializable state of a Histogram: configuration,
// the disjoint bucket partition, the recorded queries, and (when trained)
// the solved bucket frequencies. ISOMER uses no randomness, so a restored
// histogram serves bit-identical estimates without re-running the solver.
type Snapshot struct {
	Config
	Buckets []geom.Box      `json:"buckets"`
	Queries []SnapshotQuery `json:"queries,omitempty"`
	Weights []float64       `json:"weights,omitempty"`
	Trained bool            `json:"trained"`
	Frozen  bool            `json:"frozen,omitempty"`
}

// Snapshot exports the histogram's full state. The returned value shares no
// storage with the histogram and can be marshaled to JSON.
func (h *Histogram) Snapshot() *Snapshot {
	s := &Snapshot{
		Config:  h.cfg,
		Trained: h.trained,
		Frozen:  h.frozen,
	}
	s.Buckets = make([]geom.Box, len(h.buckets))
	for i, b := range h.buckets {
		s.Buckets[i] = b.Clone()
	}
	s.Queries = make([]SnapshotQuery, len(h.queries))
	for i, q := range h.queries {
		s.Queries[i] = SnapshotQuery{Box: q.box.Clone(), Sel: q.sel}
	}
	if h.trained {
		s.Weights = append([]float64(nil), h.weights...)
	}
	return s
}

// Restore rebuilds a Histogram from a snapshot, validating dimensions, the
// solver, and the weights/buckets correspondence. The restored histogram
// estimates identically and keeps refining on further observations.
func Restore(s *Snapshot) (*Histogram, error) {
	if s == nil {
		return nil, fmt.Errorf("isomer: nil snapshot")
	}
	if s.Solver != IterativeScaling && s.Solver != QuickSelQP {
		return nil, fmt.Errorf("isomer: snapshot has unknown solver %d", s.Solver)
	}
	h, err := New(s.Config)
	if err != nil {
		return nil, err
	}
	if len(s.Buckets) == 0 {
		return nil, fmt.Errorf("isomer: snapshot has no buckets")
	}
	h.buckets = make([]geom.Box, len(s.Buckets))
	for i, sb := range s.Buckets {
		box := sb.Clone()
		if box.Dim() != s.Dim {
			return nil, fmt.Errorf("isomer: snapshot bucket %d has dim %d, want %d", i, box.Dim(), s.Dim)
		}
		if err := box.Validate(); err != nil {
			return nil, fmt.Errorf("isomer: snapshot bucket %d: %w", i, err)
		}
		h.buckets[i] = box
	}
	h.queries = make([]obsQuery, len(s.Queries))
	for i, sq := range s.Queries {
		box := sq.Box.Clone()
		if box.Dim() != s.Dim {
			return nil, fmt.Errorf("isomer: snapshot query %d has dim %d, want %d", i, box.Dim(), s.Dim)
		}
		if err := box.Validate(); err != nil {
			return nil, fmt.Errorf("isomer: snapshot query %d: %w", i, err)
		}
		if math.IsNaN(sq.Sel) || sq.Sel < 0 || sq.Sel > 1 {
			return nil, fmt.Errorf("isomer: snapshot query %d has selectivity %g", i, sq.Sel)
		}
		h.queries[i] = obsQuery{box: box, sel: sq.Sel}
	}
	if s.Trained {
		if len(s.Weights) != len(s.Buckets) {
			return nil, fmt.Errorf("isomer: snapshot has %d weights for %d buckets", len(s.Weights), len(s.Buckets))
		}
		for i, w := range s.Weights {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("isomer: snapshot weight %d is not finite", i)
			}
		}
		h.weights = append([]float64(nil), s.Weights...)
	}
	h.trained = s.Trained
	h.frozen = s.Frozen
	return h, nil
}
