// Package sthole implements an STHoles-style query-driven histogram
// [Bruno, Chaudhuri, Gravano, SIGMOD 2001], the error-feedback baseline of
// the paper's evaluation (§5.1): "creates histogram buckets by partitioning
// existing buckets; the frequency of an existing bucket is distributed
// uniformly among the newly created buckets."
//
// The histogram is a tree of nested buckets. Each bucket owns the region of
// its box not covered by its children ("holes" drilled by later queries)
// and carries the estimated tuple mass of that region. Observing a query
// drills a hole for the query's box in every bucket it partially overlaps,
// assigns the hole the observed mass (apportioned uniformly over the query
// box), and adjusts the parent by error feedback. A parent-child merge step
// bounds the bucket count, which is why STHoles keeps a small parameter
// count in Figure 4 — at the cost of the accuracy loss the paper reports.
//
// Trade-off: the cheapest per-observation update of the repository's
// methods (tree surgery, no fitting step — Train is a no-op) and bounded
// memory, but the lowest accuracy of the query-driven methods, because the
// uniform redistribution of mass into drilled holes discards information
// that QuickSel's mixture fit and ISOMER's max-entropy solve retain.
// quickseld serves it as method "sthole" (internal/estimator).
package sthole

import (
	"errors"
	"fmt"
	"math"

	"quicksel/internal/geom"
)

// DefaultMaxBuckets bounds the tree size; STHoles' merge step keeps the
// histogram within budget.
const DefaultMaxBuckets = 1000

// Config tunes the histogram. Its JSON form heads a persisted Snapshot.
type Config struct {
	Dim        int `json:"dim"`
	MaxBuckets int `json:"max_buckets"` // 0 means DefaultMaxBuckets
}

// bucket is one node of the STHoles tree. freq is the estimated fraction of
// all tuples lying in the bucket's own region (box minus children boxes).
type bucket struct {
	box      geom.Box
	freq     float64
	children []*bucket
}

// ownVolume returns the volume of the bucket's own region.
func (b *bucket) ownVolume() float64 {
	v := b.box.Volume()
	for _, c := range b.children {
		v -= c.box.Volume()
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Histogram is an STHoles histogram over the normalized unit cube.
type Histogram struct {
	cfg   Config
	unit  geom.Box
	root  *bucket
	count int
	nObs  int
}

// New returns a histogram initialized with the uniform root bucket.
func New(cfg Config) (*Histogram, error) {
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("sthole: Dim must be >= 1, got %d", cfg.Dim)
	}
	if cfg.MaxBuckets == 0 {
		cfg.MaxBuckets = DefaultMaxBuckets
	}
	if cfg.MaxBuckets < 1 {
		return nil, fmt.Errorf("sthole: MaxBuckets must be positive, got %d", cfg.MaxBuckets)
	}
	unit := geom.Unit(cfg.Dim)
	return &Histogram{
		cfg:   cfg,
		unit:  unit,
		root:  &bucket{box: unit, freq: 1},
		count: 1,
	}, nil
}

// Dim returns the dimensionality of the histogram's domain.
func (h *Histogram) Dim() int { return h.cfg.Dim }

// NumBuckets returns the current number of buckets in the tree.
func (h *Histogram) NumBuckets() int { return h.count }

// ParamCount returns the number of model parameters (bucket frequencies).
func (h *Histogram) ParamCount() int { return h.count }

// NumObserved returns the number of observed queries.
func (h *Histogram) NumObserved() int { return h.nObs }

// Observe refines the histogram with one (query box, selectivity) pair.
func (h *Histogram) Observe(box geom.Box, sel float64) error {
	if box.Dim() != h.cfg.Dim {
		return fmt.Errorf("sthole: observed box has dim %d, want %d", box.Dim(), h.cfg.Dim)
	}
	if err := box.Validate(); err != nil {
		return fmt.Errorf("sthole: observed box: %w", err)
	}
	if math.IsNaN(sel) {
		return errors.New("sthole: NaN selectivity")
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
	h.drill(h.root, b, sel, b.Volume())
	h.nObs++
	for h.count > h.cfg.MaxBuckets {
		if !h.mergeOnce() {
			break
		}
	}
	return nil
}

// drill recursively carves the query box q (observed selectivity sel,
// total volume qVol) into the subtree rooted at n.
func (h *Histogram) drill(n *bucket, q geom.Box, sel, qVol float64) {
	cand, ok := n.box.Intersect(q)
	if !ok {
		return
	}
	// Recurse into children first; holes are drilled bottom-up so each
	// level only handles its own region.
	for _, c := range n.children {
		h.drill(c, q, sel, qVol)
	}
	if cand.Equal(n.box) {
		// The bucket lies entirely inside the query: its own region needs
		// no hole, but error feedback still applies — handled at estimate
		// level by construction (mass stays put).
		return
	}
	// Shrink the candidate so it does not partially cut any child box
	// (STHoles' shrink operation). Children fully inside the candidate are
	// fine: they will be re-parented into the hole.
	cand = h.shrink(n, cand)
	if cand.IsEmpty() {
		return
	}
	// Partition children: those inside the hole move under it.
	var inside, outside []*bucket
	for _, c := range n.children {
		if cand.ContainsBox(c.box) {
			inside = append(inside, c)
		} else {
			outside = append(outside, c)
		}
	}
	holeOwn := cand.Volume()
	for _, c := range inside {
		holeOwn -= c.box.Volume()
	}
	if holeOwn <= 0 {
		return // hole entirely covered by existing children; nothing to learn
	}
	// Observed mass apportioned uniformly over the query box (the paper's
	// "distributed uniformly" rule).
	newMass := sel * holeOwn / qVol
	// Error feedback: remove the parent's previous estimate for the region
	// it is ceding to the hole.
	ownV := n.ownVolume()
	if ownV > 0 {
		ceded := n.freq * holeOwn / ownV
		n.freq -= ceded
		if n.freq < 0 {
			n.freq = 0
		}
	}
	hole := &bucket{box: cand, freq: newMass, children: inside}
	n.children = append(outside, hole)
	h.count++
}

// shrink cuts the candidate hole along axis-aligned planes until no child
// of n partially overlaps it, preferring the cut that preserves the most
// candidate volume at each step.
func (h *Histogram) shrink(n *bucket, cand geom.Box) geom.Box {
	for iter := 0; iter < 64; iter++ {
		var offender *bucket
		for _, c := range n.children {
			if cand.Overlaps(c.box) && !cand.ContainsBox(c.box) {
				offender = c
				break
			}
		}
		if offender == nil {
			return cand
		}
		best := geom.Box{}
		bestVol := -1.0
		for d := 0; d < cand.Dim(); d++ {
			// Cut below the offender.
			if offender.box.Lo[d] > cand.Lo[d] {
				cut := cand.Clone()
				cut.Hi[d] = math.Min(cut.Hi[d], offender.box.Lo[d])
				if v := cut.Volume(); v > bestVol {
					best, bestVol = cut, v
				}
			}
			// Cut above the offender.
			if offender.box.Hi[d] < cand.Hi[d] {
				cut := cand.Clone()
				cut.Lo[d] = math.Max(cut.Lo[d], offender.box.Hi[d])
				if v := cut.Volume(); v > bestVol {
					best, bestVol = cut, v
				}
			}
		}
		if bestVol <= 0 {
			return geom.Box{Lo: make([]float64, cand.Dim()), Hi: make([]float64, cand.Dim())}
		}
		cand = best
	}
	return cand
}

// mergeOnce performs the lowest-penalty parent-child merge; it returns
// false if the tree has no mergeable pair (only the root remains).
func (h *Histogram) mergeOnce() bool {
	type pair struct {
		parent *bucket
		childI int
	}
	var best pair
	bestPenalty := math.Inf(1)
	var walk func(n *bucket)
	walk = func(n *bucket) {
		ownV := n.ownVolume()
		var nDensity float64
		if ownV > 0 {
			nDensity = n.freq / ownV
		}
		for i, c := range n.children {
			cv := c.ownVolume()
			var cDensity float64
			if cv > 0 {
				cDensity = c.freq / cv
			}
			// Penalty: estimated absolute error introduced by flattening the
			// child into the parent (density difference times child volume).
			penalty := math.Abs(cDensity-nDensity) * cv
			if penalty < bestPenalty {
				bestPenalty = penalty
				best = pair{parent: n, childI: i}
			}
			walk(c)
		}
	}
	walk(h.root)
	if best.parent == nil {
		return false
	}
	p, i := best.parent, best.childI
	child := p.children[i]
	p.freq += child.freq
	p.children = append(p.children[:i], p.children[i+1:]...)
	p.children = append(p.children, child.children...)
	h.count--
	return true
}

// Estimate returns the histogram's estimate for a normalized box.
func (h *Histogram) Estimate(box geom.Box) (float64, error) {
	if box.Dim() != h.cfg.Dim {
		return 0, fmt.Errorf("sthole: query box has dim %d, want %d", box.Dim(), h.cfg.Dim)
	}
	q := box.Clip(h.unit)
	est := h.estimate(h.root, q)
	if est < 0 {
		est = 0
	}
	if est > 1 {
		est = 1
	}
	return est, nil
}

func (h *Histogram) estimate(n *bucket, q geom.Box) float64 {
	interBox := n.box.IntersectionVolume(q)
	if interBox == 0 {
		return 0
	}
	var est float64
	interOwn := interBox
	for _, c := range n.children {
		interOwn -= c.box.IntersectionVolume(q)
		est += h.estimate(c, q)
	}
	if interOwn > 0 {
		if ownV := n.ownVolume(); ownV > 0 {
			est += n.freq * interOwn / ownV
		}
	}
	return est
}
