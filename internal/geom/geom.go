// Package geom implements axis-aligned hyperrectangle (box) geometry in d
// dimensions. Boxes are the geometric currency of the whole repository:
// query predicates lower to boxes (internal/predicate), QuickSel
// subpopulations are boxes (internal/core), and every histogram baseline
// partitions the domain into boxes.
//
// A Box is the half-open product [Lo[0], Hi[0]) × ... × [Lo[d-1], Hi[d-1]).
// Half-open semantics make integer and categorical attributes exact: the
// paper (§2.2) maps an integer value k to the real interval [k, k+1).
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Box is an axis-aligned hyperrectangle. The zero value is a 0-dimensional
// box with volume 1 (the empty product), which is rarely useful; construct
// boxes with NewBox or Unit. Its JSON form, {"lo": [...], "hi": [...]}, is
// the box of every persisted model snapshot.
type Box struct {
	Lo []float64 `json:"lo"` // inclusive lower corner
	Hi []float64 `json:"hi"` // exclusive upper corner
}

// NewBox returns the box with the given corners. It panics if the corner
// slices differ in length; use Validate to check well-formedness (Lo <= Hi)
// without panicking.
func NewBox(lo, hi []float64) Box {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("geom: corner dimension mismatch: %d vs %d", len(lo), len(hi)))
	}
	return Box{Lo: lo, Hi: hi}
}

// Unit returns the unit cube [0,1)^d. All estimators in this repository
// operate on predicates normalized into the unit cube.
func Unit(d int) Box {
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := range hi {
		hi[i] = 1
	}
	return Box{Lo: lo, Hi: hi}
}

// Dim returns the dimensionality of the box.
func (b Box) Dim() int { return len(b.Lo) }

// Validate reports an error if the box is malformed: mismatched corner
// lengths, a NaN coordinate, or Lo[i] > Hi[i] in any dimension.
func (b Box) Validate() error {
	if len(b.Lo) != len(b.Hi) {
		return fmt.Errorf("geom: corner dimension mismatch: %d vs %d", len(b.Lo), len(b.Hi))
	}
	if err := b.CheckNaN(); err != nil {
		return err
	}
	for i := range b.Lo {
		if b.Lo[i] > b.Hi[i] {
			return fmt.Errorf("geom: inverted interval in dimension %d: [%g, %g)", i, b.Lo[i], b.Hi[i])
		}
	}
	return nil
}

// CheckNaN reports an error naming the first dimension with a NaN corner.
// Comparisons read a NaN corner as an open bound while min, max and
// arithmetic carry it into a volume, so no kernel gives it a meaning.
func (b Box) CheckNaN() error {
	for i := range b.Lo {
		if math.IsNaN(b.Lo[i]) || math.IsNaN(b.Hi[i]) {
			return fmt.Errorf("geom: NaN coordinate in dimension %d", i)
		}
	}
	return nil
}

// IsEmpty reports whether the box has zero volume, i.e. some side collapses.
func (b Box) IsEmpty() bool {
	for i := range b.Lo {
		if b.Hi[i] <= b.Lo[i] {
			return true
		}
	}
	return len(b.Lo) == 0
}

// Volume returns the d-dimensional volume Π (Hi[i] - Lo[i]). A malformed
// (inverted) box reports volume 0 rather than a negative value.
func (b Box) Volume() float64 {
	if len(b.Lo) == 0 {
		return 0
	}
	v := 1.0
	for i := range b.Lo {
		side := b.Hi[i] - b.Lo[i]
		if side <= 0 {
			return 0
		}
		v *= side
	}
	return v
}

// Side returns the length of the box along dimension i.
func (b Box) Side(i int) float64 { return b.Hi[i] - b.Lo[i] }

// Center returns the midpoint of the box.
func (b Box) Center() []float64 {
	c := make([]float64, len(b.Lo))
	for i := range c {
		c[i] = (b.Lo[i] + b.Hi[i]) / 2
	}
	return c
}

// Contains reports whether the point lies inside the half-open box.
func (b Box) Contains(p []float64) bool {
	if len(p) != len(b.Lo) {
		return false
	}
	for i := range p {
		if p[i] < b.Lo[i] || p[i] >= b.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsBox reports whether other lies entirely within b.
// An empty other is contained in everything of the same dimension.
func (b Box) ContainsBox(other Box) bool {
	if other.Dim() != b.Dim() {
		return false
	}
	if other.IsEmpty() {
		return true
	}
	for i := range b.Lo {
		if other.Lo[i] < b.Lo[i] || other.Hi[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Equal reports whether the two boxes have identical corners.
func (b Box) Equal(other Box) bool {
	if b.Dim() != other.Dim() {
		return false
	}
	for i := range b.Lo {
		if b.Lo[i] != other.Lo[i] || b.Hi[i] != other.Hi[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the box; mutating the copy's corners does not
// affect the original.
func (b Box) Clone() Box {
	lo := make([]float64, len(b.Lo))
	hi := make([]float64, len(b.Hi))
	copy(lo, b.Lo)
	copy(hi, b.Hi)
	return Box{Lo: lo, Hi: hi}
}

// Intersect returns the intersection of the two boxes and whether it is
// non-empty. The returned box shares no storage with the inputs.
func (b Box) Intersect(other Box) (Box, bool) {
	if b.Dim() != other.Dim() {
		return Box{}, false
	}
	lo := make([]float64, b.Dim())
	hi := make([]float64, b.Dim())
	for i := range lo {
		lo[i] = math.Max(b.Lo[i], other.Lo[i])
		hi[i] = math.Min(b.Hi[i], other.Hi[i])
		if hi[i] <= lo[i] {
			return Box{}, false
		}
	}
	return Box{Lo: lo, Hi: hi}, true
}

// Overlaps reports whether the two boxes share positive volume.
func (b Box) Overlaps(other Box) bool {
	if b.Dim() != other.Dim() {
		return false
	}
	for i := range b.Lo {
		if math.Min(b.Hi[i], other.Hi[i]) <= math.Max(b.Lo[i], other.Lo[i]) {
			return false
		}
	}
	return true
}

// IntersectionVolume returns |b ∩ other| without materializing the
// intersection box. This is the hot operation of QuickSel's training
// (Theorem 1 computes it m² + n·m times), so it allocates nothing.
func (b Box) IntersectionVolume(other Box) float64 {
	if b.Dim() != other.Dim() {
		return 0
	}
	v := 1.0
	for i := range b.Lo {
		side := math.Min(b.Hi[i], other.Hi[i]) - math.Max(b.Lo[i], other.Lo[i])
		if side <= 0 {
			return 0
		}
		v *= side
	}
	return v
}

// Jaccard returns the volume-based Jaccard similarity |b ∩ other| / |b ∪
// other| of two boxes, in [0, 1]. The union volume is |b| + |other| − |b ∩
// other| (inclusion-exclusion; the union of two boxes is generally not a
// box, but its volume is exact). Two boxes with zero union volume — both
// empty — have similarity 0. The observation coreset (internal/core) merges
// feedback whose predicate boxes exceed a Jaccard threshold.
func (b Box) Jaccard(other Box) float64 {
	inter := b.IntersectionVolume(other)
	if inter <= 0 {
		return 0
	}
	union := b.Volume() + other.Volume() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// Clip returns b intersected with bounds, clamping rather than dropping: the
// result is always a valid (possibly empty) box lying inside bounds.
func (b Box) Clip(bounds Box) Box {
	lo := make([]float64, len(b.Lo))
	hi := make([]float64, len(b.Hi))
	for i := range b.Lo {
		l, h := b.Lo[i], b.Hi[i]
		if l < bounds.Lo[i] {
			l = bounds.Lo[i]
		}
		if h > bounds.Hi[i] {
			h = bounds.Hi[i]
		}
		if h < l {
			h = l
		}
		lo[i], hi[i] = l, h
	}
	return Box{Lo: lo, Hi: hi}
}

// String renders the box as a product of intervals, e.g.
// "[0.1,0.5)×[0,1)".
func (b Box) String() string {
	var sb strings.Builder
	for i := range b.Lo {
		if i > 0 {
			sb.WriteByte('x')
		}
		fmt.Fprintf(&sb, "[%g,%g)", b.Lo[i], b.Hi[i])
	}
	return sb.String()
}

// SquaredDistance returns the squared Euclidean distance between two points.
// It panics if the points differ in dimension.
func SquaredDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("geom: point dimension mismatch: %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// CenteredBox returns the box of the given per-dimension half-widths around
// center, clipped to bounds. Degenerate (zero-width) dimensions are widened
// to a minimal epsilon fraction of the bounds so the box keeps positive
// volume; QuickSel needs every subpopulation support to have |G_z| > 0.
func CenteredBox(center []float64, halfWidth []float64, bounds Box) Box {
	const minFrac = 1e-9
	lo := make([]float64, len(center))
	hi := make([]float64, len(center))
	for i := range center {
		w := halfWidth[i]
		minW := float64(minFrac * bounds.Side(i))
		if w < minW {
			w = minW
		}
		lo[i] = center[i] - w
		hi[i] = center[i] + w
	}
	b := Box{Lo: lo, Hi: hi}.Clip(bounds)
	// Clipping can collapse a side when the center sits on the boundary;
	// push the collapsed side inward to restore positive volume.
	for i := range b.Lo {
		if b.Hi[i] <= b.Lo[i] {
			minW := float64(minFrac * bounds.Side(i))
			if b.Lo[i]+minW <= bounds.Hi[i] {
				b.Hi[i] = b.Lo[i] + minW
			} else {
				b.Lo[i] = b.Hi[i] - minW
			}
		}
	}
	return b
}
