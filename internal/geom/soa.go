package geom

// This file implements BoxSet, a structure-of-arrays layout for a fixed
// collection of same-dimensional boxes. The []Box representation chases a
// pointer per box (each Box holds two heap slices); the hot training kernels
// (Q-matrix assembly computes |G_i ∩ G_j| for all m²/2 pairs) and the
// compiled serving path instead stream two contiguous float64 arrays, which
// keeps the pair kernel memory-bound on cache lines rather than on pointer
// dereferences.
//
// Every numeric method mirrors the corresponding Box method exactly — same
// ascending-dimension order, same early-outs — so converting a []Box to a
// BoxSet never changes a computed volume bit. The mirror holds for ±0 and
// NaN corners too: the builtin min and max agree with Box's math.Min and
// math.Max on signed zeros and return NaN for a NaN against any finite
// corner, so a NaN corner yields NaN from a BoxSet kernel exactly when it
// does from Box.IntersectionVolume.

import "fmt"

// BoxSet stores n boxes of dimension dim with all lower corners in one
// contiguous slice and all upper corners in another: box i spans
// Lo[i*dim:(i+1)*dim), Hi[i*dim:(i+1)*dim).
type BoxSet struct {
	dim int
	Lo  []float64
	Hi  []float64
}

// NewBoxSet returns an empty set of dim-dimensional boxes with capacity for
// n boxes pre-allocated.
func NewBoxSet(dim, n int) *BoxSet {
	if dim < 1 {
		panic(fmt.Sprintf("geom: BoxSet dimension must be >= 1, got %d", dim))
	}
	return &BoxSet{
		dim: dim,
		Lo:  make([]float64, 0, n*dim),
		Hi:  make([]float64, 0, n*dim),
	}
}

// BoxSetOf packs the boxes into a new BoxSet. All boxes must share one
// dimension; the set copies the corners, so later mutation of the input
// boxes does not affect it.
func BoxSetOf(boxes []Box) *BoxSet {
	if len(boxes) == 0 {
		panic("geom: BoxSetOf needs at least one box to fix the dimension")
	}
	s := NewBoxSet(boxes[0].Dim(), len(boxes))
	for _, b := range boxes {
		s.Append(b)
	}
	return s
}

// Len returns the number of boxes in the set.
func (s *BoxSet) Len() int { return len(s.Lo) / s.dim }

// Dim returns the dimensionality of the set's boxes.
func (s *BoxSet) Dim() int { return s.dim }

// Append adds a box to the set. It panics on a dimension mismatch.
func (s *BoxSet) Append(b Box) {
	if b.Dim() != s.dim {
		panic(fmt.Sprintf("geom: BoxSet.Append dimension mismatch: %d vs %d", b.Dim(), s.dim))
	}
	s.Lo = append(s.Lo, b.Lo...)
	s.Hi = append(s.Hi, b.Hi...)
}

// Box returns a copy of box i; mutating it does not affect the set.
func (s *BoxSet) Box(i int) Box {
	lo := make([]float64, s.dim)
	hi := make([]float64, s.dim)
	copy(lo, s.Lo[i*s.dim:(i+1)*s.dim])
	copy(hi, s.Hi[i*s.dim:(i+1)*s.dim])
	return Box{Lo: lo, Hi: hi}
}

// Volume returns the volume of box i, computed with the same operation order
// as Box.Volume.
func (s *BoxSet) Volume(i int) float64 {
	base := i * s.dim
	v := 1.0
	for d := 0; d < s.dim; d++ {
		side := s.Hi[base+d] - s.Lo[base+d]
		if side <= 0 {
			return 0
		}
		v *= side
	}
	return v
}

// IntersectionVolume returns |box i ∩ box j| allocation-free, bit-identical
// to Box.IntersectionVolume on the same corners. It is the serving kernel
// with box i's corners as the query.
func (s *BoxSet) IntersectionVolume(i, j int) float64 {
	d := s.dim
	return s.CornersIntersectionVolume(j, s.Lo[i*d:][:d], s.Hi[i*d:][:d])
}

// CornersIntersectionVolume returns the intersection volume of box i with
// the box given by raw corner slices (len dim each). This is the serving
// kernel: the query box arrives as its two corner slices, never as a Box.
//
// The builtin min and max compile to branch-free instructions, where a
// compare and branch per bound would mispredict on serving traffic that
// overlaps most kernels. Box i's corners are sliced to exactly dim elements
// once so the loop needs no per-element bounds checks on them, and the body
// must stay under the inliner's budget: compiledModel.estimate relies on
// getting the loop inlined (go build -gcflags=-m ./internal/core shows it).
func (s *BoxSet) CornersIntersectionVolume(i int, lo, hi []float64) float64 {
	d := s.dim
	blo, bhi := s.Lo[i*d:][:d], s.Hi[i*d:][:d]
	v := 1.0
	for k, l := range blo {
		side := min(bhi[k], hi[k]) - max(l, lo[k])
		if side <= 0 {
			return 0
		}
		v *= side
	}
	return v
}
