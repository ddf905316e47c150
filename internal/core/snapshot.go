package core

import (
	"fmt"
	"math"

	"quicksel/internal/geom"
)

// SnapshotVersion is the current serialization format version. Restore
// rejects snapshots with a different version rather than guessing.
const SnapshotVersion = 1

// maxRngDraws bounds Snapshot.RngDraws at restore time (the fast-forward
// is linear in it). 2^33 draws replay in tens of seconds worst case; real
// models stay orders of magnitude below.
const maxRngDraws = 1 << 33

// SnapshotObservation is one serialized training record: the lowered
// predicate box, the observed selectivity, and the workload-aware points
// drawn inside the box at observation time. Persisting the points keeps
// post-restore retraining deterministic: the center pool of §3.3 is rebuilt
// from exactly the same candidates.
type SnapshotObservation struct {
	geom.Box
	Sel float64 `json:"sel"`
	// Weight is the coreset weight: how many raw feedback records this one
	// stands for. Omitted when 1 (the uncoalesced default), so snapshots
	// from models without an observation cap are byte-identical to the
	// pre-coreset format; absent means 1 on restore.
	Weight float64     `json:"weight,omitempty"`
	Points [][]float64 `json:"points,omitempty"`
}

// Snapshot is the complete serializable state of a Model: configuration,
// every observation (with its workload-aware points), the trained
// subpopulations and weights, and the PRNG stream position. A restored
// model produces bit-identical estimates without retraining, and — because
// RngDraws fast-forwards the deterministic stream to where the original
// left off — continues observing and retraining bit-identically too, which
// is what lets the write-ahead log replay a snapshot-plus-suffix into the
// exact state of an uncrashed run. Snapshots from builds that predate
// RngDraws restore with the stream reset to the seed (their historical
// behaviour).
type Snapshot struct {
	Version       int                   `json:"version"`
	Config        Config                `json:"config"`
	DefaultPoints [][]float64           `json:"default_points"`
	Observations  []SnapshotObservation `json:"observations"`
	Subpops       []geom.Box            `json:"subpops,omitempty"`
	Weights       []float64             `json:"weights,omitempty"`
	Trained       bool                  `json:"trained"`
	RngDraws      uint64                `json:"rng_draws,omitempty"`
}

func copyPoints(pts [][]float64) [][]float64 {
	if pts == nil {
		return nil
	}
	out := make([][]float64, len(pts))
	for i, p := range pts {
		q := make([]float64, len(p))
		copy(q, p)
		out[i] = q
	}
	return out
}

// Snapshot exports the model's full state. The returned value shares no
// storage with the model; it can be marshaled to JSON and handed to Restore
// in another process.
func (m *Model) Snapshot() *Snapshot {
	s := &Snapshot{
		Version:       SnapshotVersion,
		Config:        m.cfg,
		DefaultPoints: copyPoints(m.defaultPoints),
		Trained:       m.trained,
		RngDraws:      m.src.n,
	}
	s.Observations = make([]SnapshotObservation, len(m.observations))
	for i, o := range m.observations {
		so := SnapshotObservation{
			Box:    o.box.Clone(),
			Sel:    o.sel,
			Points: copyPoints(o.points),
		}
		if o.weight != 1 {
			so.Weight = o.weight
		}
		s.Observations[i] = so
	}
	if m.subpops != nil {
		s.Subpops = m.Subpopulations()
		s.Weights = m.Weights()
	}
	return s
}

// Restore rebuilds a Model from a snapshot, validating the format version,
// dimensions, and internal consistency. The restored model estimates
// identically to the snapshotted one and — with the stream fast-forwarded
// to Snapshot.RngDraws — keeps observing and training bit-identically.
func Restore(s *Snapshot) (*Model, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d (want %d)", s.Version, SnapshotVersion)
	}
	cfg := s.Config
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	if len(s.Weights) != len(s.Subpops) {
		return nil, fmt.Errorf("core: snapshot has %d weights for %d subpopulations",
			len(s.Weights), len(s.Subpops))
	}
	// Fast-forwarding is linear in RngDraws, so bound it: a legitimate
	// model draws ~PointsPerPredicate×Dim per observation plus one shuffle
	// per training run — even years of heavy traffic stay far below this —
	// while a corrupt or hostile value (the field is the one uint64 no
	// other validation constrains) must not hang Restore.
	if s.RngDraws > maxRngDraws {
		return nil, fmt.Errorf("core: snapshot rng_draws %d exceeds the %d bound (corrupt snapshot?)", s.RngDraws, uint64(maxRngDraws))
	}
	m := newModel(cfg.withDefaults(), s.RngDraws)
	checkPoint := func(p []float64, what string) error {
		if len(p) != cfg.Dim {
			return fmt.Errorf("core: snapshot %s point has dim %d, model has %d", what, len(p), cfg.Dim)
		}
		for _, v := range p {
			if math.IsNaN(v) {
				return fmt.Errorf("core: snapshot %s point has NaN coordinate", what)
			}
		}
		return nil
	}
	for _, p := range s.DefaultPoints {
		if err := checkPoint(p, "default"); err != nil {
			return nil, err
		}
	}
	m.defaultPoints = copyPoints(s.DefaultPoints)
	m.observations = make([]observation, len(s.Observations))
	for i, o := range s.Observations {
		box := o.Box.Clone()
		if box.Dim() != cfg.Dim {
			return nil, fmt.Errorf("core: snapshot observation %d has dim %d, model has %d", i, box.Dim(), cfg.Dim)
		}
		if err := box.Validate(); err != nil {
			return nil, fmt.Errorf("core: snapshot observation %d: %w", i, err)
		}
		if math.IsNaN(o.Sel) {
			return nil, fmt.Errorf("core: snapshot observation %d has NaN selectivity", i)
		}
		sel := o.Sel
		if sel < 0 {
			sel = 0
		}
		if sel > 1 {
			sel = 1
		}
		for _, p := range o.Points {
			if err := checkPoint(p, fmt.Sprintf("observation %d", i)); err != nil {
				return nil, err
			}
		}
		weight := o.Weight
		if weight == 0 {
			weight = 1 // pre-coreset snapshots omit the field
		}
		if weight < 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
			return nil, fmt.Errorf("core: snapshot observation %d has invalid weight %g", i, o.Weight)
		}
		m.observations[i] = observation{
			box:    box.Clip(m.unit),
			sel:    sel,
			weight: weight,
			points: copyPoints(o.Points),
		}
	}
	if len(s.Subpops) > 0 {
		for i, box := range s.Subpops {
			if box.Dim() != cfg.Dim {
				return nil, fmt.Errorf("core: snapshot subpopulation %d has dim %d, model has %d", i, box.Dim(), cfg.Dim)
			}
			if err := box.Validate(); err != nil {
				return nil, fmt.Errorf("core: snapshot subpopulation %d: %w", i, err)
			}
			if box.Volume() == 0 {
				return nil, fmt.Errorf("core: snapshot subpopulation %d has zero volume", i)
			}
			// Estimate scans raw query corners, which is exact only for
			// subpopulations inside the unit cube; Train never makes others.
			if !m.unit.ContainsBox(box) {
				return nil, fmt.Errorf("core: snapshot subpopulation %d lies outside the unit cube", i)
			}
		}
		m.setSubpops(s.Subpops)
		m.weights = make([]float64, len(s.Weights))
		for i, w := range s.Weights {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("core: snapshot weight %d is not finite", i)
			}
			m.weights[i] = w
		}
	}
	m.trained = s.Trained
	// Rebuild the compiled serving form so a restored model estimates on the
	// same allocation-free fast path as a freshly trained one.
	if m.trained && m.subpops != nil {
		m.compiled = compile(m.subpops, m.weights)
	}
	return m, nil
}
