package sthole

import (
	"fmt"
	"math"

	"quicksel/internal/geom"
)

// SnapshotBucket is the serialized form of one bucket of the STHoles tree:
// its box, the tuple mass of its own region, and its nested holes.
type SnapshotBucket struct {
	geom.Box
	Freq     float64          `json:"freq"`
	Children []SnapshotBucket `json:"children,omitempty"`
}

// Snapshot is the complete serializable state of a Histogram. A restored
// histogram produces bit-identical estimates: the whole model is the bucket
// tree, and the tree is persisted exactly (STHoles uses no randomness).
type Snapshot struct {
	Config
	NumObserved int            `json:"num_observed"`
	Root        SnapshotBucket `json:"root"`
}

func bucketToSnapshot(b *bucket) SnapshotBucket {
	out := SnapshotBucket{Box: b.box.Clone(), Freq: b.freq}
	if len(b.children) > 0 {
		out.Children = make([]SnapshotBucket, len(b.children))
		for i, ch := range b.children {
			out.Children[i] = bucketToSnapshot(ch)
		}
	}
	return out
}

// Snapshot exports the histogram's full state. The returned value shares no
// storage with the histogram and can be marshaled to JSON.
func (h *Histogram) Snapshot() *Snapshot {
	return &Snapshot{
		Config:      h.cfg,
		NumObserved: h.nObs,
		Root:        bucketToSnapshot(h.root),
	}
}

func bucketFromSnapshot(s SnapshotBucket, dim int) (*bucket, int, error) {
	box := s.Box.Clone()
	if box.Dim() != dim {
		return nil, 0, fmt.Errorf("sthole: snapshot bucket has dim %d, want %d", box.Dim(), dim)
	}
	if err := box.Validate(); err != nil {
		return nil, 0, fmt.Errorf("sthole: snapshot bucket: %w", err)
	}
	if math.IsNaN(s.Freq) || math.IsInf(s.Freq, 0) || s.Freq < 0 {
		return nil, 0, fmt.Errorf("sthole: snapshot bucket has frequency %g", s.Freq)
	}
	b := &bucket{box: box, freq: s.Freq}
	count := 1
	for _, cs := range s.Children {
		child, n, err := bucketFromSnapshot(cs, dim)
		if err != nil {
			return nil, 0, err
		}
		if !box.ContainsBox(child.box) {
			return nil, 0, fmt.Errorf("sthole: snapshot child bucket %v escapes its parent %v", child.box, box)
		}
		b.children = append(b.children, child)
		count += n
	}
	return b, count, nil
}

// Restore rebuilds a Histogram from a snapshot, validating dimensions, box
// nesting, and frequencies. The restored histogram estimates identically to
// the snapshotted one and keeps learning from further observations.
func Restore(s *Snapshot) (*Histogram, error) {
	if s == nil {
		return nil, fmt.Errorf("sthole: nil snapshot")
	}
	h, err := New(s.Config)
	if err != nil {
		return nil, err
	}
	if s.NumObserved < 0 {
		return nil, fmt.Errorf("sthole: snapshot NumObserved is negative")
	}
	h.root, h.count, err = bucketFromSnapshot(s.Root, s.Dim)
	if err != nil {
		return nil, err
	}
	h.nObs = s.NumObserved
	return h, nil
}
