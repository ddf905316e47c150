package predicate

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"quicksel/internal/geom"
)

// kind enumerates predicate node types.
type kind int

const (
	kindAll kind = iota // matches every tuple (the paper's P0)
	kindLeaf
	kindAnd
	kindOr
	kindNot
)

// Constraint restricts one column to the half-open interval [Lo, Hi) in raw
// (un-normalized) coordinates. Unbounded sides use ±Inf and are clamped to
// the column domain during lowering.
type Constraint struct {
	Col int
	Lo  float64
	Hi  float64
}

// clamp returns the constraint's bounds clamped to its column's domain: an
// open (±Inf) or out-of-domain side takes the domain's end.
func (c Constraint) clamp(s *Schema) (lo, hi float64) {
	dLo, dHi := s.Cols[c.Col].domain()
	return max(c.Lo, dLo), min(c.Hi, dHi)
}

// Predicate is an immutable boolean expression tree over range constraints.
// Build predicates with All, Range, AtLeast, AtMost, Eq, In, And, Or, Not.
type Predicate struct {
	k    kind
	leaf Constraint
	kids []*Predicate
}

// All returns the predicate matching every tuple (selectivity 1).
func All() *Predicate { return &Predicate{k: kindAll} }

// Range restricts column col to [lo, hi) in raw coordinates.
func Range(col int, lo, hi float64) *Predicate {
	return &Predicate{k: kindLeaf, leaf: Constraint{Col: col, Lo: lo, Hi: hi}}
}

// AtLeast restricts column col to [lo, +domain-max).
func AtLeast(col int, lo float64) *Predicate {
	return Range(col, lo, math.Inf(1))
}

// AtMost restricts column col to [domain-min, hi).
func AtMost(col int, hi float64) *Predicate {
	return Range(col, math.Inf(-1), hi)
}

// Eq is an equality constraint for discrete (Integer/Categorical) columns:
// value k lowers to the interval [k, k+1), per §2.2.
func Eq(col int, v float64) *Predicate {
	return Range(col, v, v+1)
}

// In is a disjunction of equality constraints on a discrete column.
func In(col int, vals ...float64) *Predicate {
	kids := make([]*Predicate, len(vals))
	for i, v := range vals {
		kids[i] = Eq(col, v)
	}
	return Or(kids...)
}

// And returns the conjunction of the given predicates. And() == All().
func And(ps ...*Predicate) *Predicate {
	if len(ps) == 0 {
		return All()
	}
	if len(ps) == 1 {
		return ps[0]
	}
	return &Predicate{k: kindAnd, kids: ps}
}

// Or returns the disjunction of the given predicates. Or() matches nothing
// (an empty disjunction), represented as Not(All()).
func Or(ps ...*Predicate) *Predicate {
	if len(ps) == 0 {
		return Not(All())
	}
	if len(ps) == 1 {
		return ps[0]
	}
	return &Predicate{k: kindOr, kids: ps}
}

// Not negates a predicate.
func Not(p *Predicate) *Predicate {
	return &Predicate{k: kindNot, kids: []*Predicate{p}}
}

// String renders the predicate for logs and error messages.
func (p *Predicate) String() string {
	switch p.k {
	case kindAll:
		return "TRUE"
	case kindLeaf:
		return fmt.Sprintf("c%d∈[%g,%g)", p.leaf.Col, p.leaf.Lo, p.leaf.Hi)
	case kindAnd, kindOr:
		sep := " AND "
		if p.k == kindOr {
			sep = " OR "
		}
		parts := make([]string, len(p.kids))
		for i, k := range p.kids {
			parts[i] = k.String()
		}
		return "(" + strings.Join(parts, sep) + ")"
	case kindNot:
		return "NOT " + p.kids[0].String()
	default:
		return "?"
	}
}

// Boxes lowers the predicate into a set of pairwise-disjoint boxes in the
// normalized unit cube [0,1)^dim(schema). The union of the returned boxes is
// exactly the region the predicate selects. Lowering folds the tree over
// boxes starting from the unit cube, so a conjunction of any length narrows
// one box. Every node is checked: a nil node, an out-of-range column
// reference or a NaN bound is an error even where an earlier conjunct
// already selects nothing.
func (p *Predicate) Boxes(s *Schema) ([]geom.Box, error) {
	boxes, err := p.lower(s, []geom.Box{geom.Unit(s.Dim())})
	if err != nil || len(boxes) < 2 {
		return boxes, err
	}
	return geom.Disjointify(boxes), nil
}

// lower intersects boxes, which the caller owns and which share no storage,
// with the predicate's region. The result lists, for each incoming box in
// order, its non-empty intersections with the region's boxes in order. A
// leaf narrows the boxes in place; a disjunction or negation lowers its
// children from the unit cube and intersects with what they return, or
// returns that region itself when the one incoming box is the unit cube.
func (p *Predicate) lower(s *Schema, boxes []geom.Box) ([]geom.Box, error) {
	if p == nil {
		return nil, errors.New("predicate: nil predicate")
	}
	switch p.k {
	case kindAll:
		return boxes, nil
	case kindLeaf:
		c := p.leaf
		if c.Col < 0 || c.Col >= s.Dim() {
			return nil, fmt.Errorf("predicate: column %d out of range [0,%d)", c.Col, s.Dim())
		}
		if math.IsNaN(c.Lo) || math.IsNaN(c.Hi) {
			return nil, fmt.Errorf("predicate: NaN bound on column %d", c.Col)
		}
		lo, hi := c.clamp(s)
		if hi <= lo {
			return boxes[:0], nil // empty selection
		}
		lo, hi = s.Normalize(c.Col, lo), s.Normalize(c.Col, hi)
		kept := boxes[:0]
		for _, b := range boxes {
			// geom.Box.Intersect's arithmetic and empty test on the one
			// column the leaf constrains, so the box keeps the same bits.
			b.Lo[c.Col] = math.Max(b.Lo[c.Col], lo)
			b.Hi[c.Col] = math.Min(b.Hi[c.Col], hi)
			if b.Hi[c.Col] <= b.Lo[c.Col] {
				continue
			}
			kept = append(kept, b)
		}
		return kept, nil
	case kindAnd:
		var err error
		for _, kid := range p.kids {
			if boxes, err = kid.lower(s, boxes); err != nil {
				return nil, err
			}
		}
		return boxes, nil
	case kindOr, kindNot:
		var region []geom.Box
		for _, kid := range p.kids {
			kb, err := kid.lower(s, []geom.Box{geom.Unit(s.Dim())})
			if err != nil {
				return nil, err
			}
			region = append(region, kb...)
		}
		if p.k == kindNot {
			region = geom.SubtractAll(geom.Unit(s.Dim()), region)
		}
		if len(boxes) == 1 && isUnit(boxes[0]) {
			// Every region box lies in the unit cube, so intersecting it
			// with the whole cube would only copy it.
			return region, nil
		}
		var out []geom.Box
		for _, a := range boxes {
			for _, r := range region {
				if inter, ok := a.Intersect(r); ok {
					out = append(out, inter)
				}
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("predicate: unknown node kind %d", p.k)
	}
}

// isUnit reports whether b spans the whole unit cube.
func isUnit(b geom.Box) bool {
	for k, lo := range b.Lo {
		if lo != 0 || b.Hi[k] != 1 {
			return false
		}
	}
	return true
}

// Matches evaluates the predicate against a raw tuple. This is the oracle
// the lowered geometry must agree with; the data substrate uses it to
// compute exact selectivities.
func (p *Predicate) Matches(s *Schema, tuple []float64) bool {
	switch p.k {
	case kindAll:
		return true
	case kindLeaf:
		lo, hi := p.leaf.clamp(s)
		v := tuple[p.leaf.Col]
		return v >= lo && v < hi
	case kindAnd:
		for _, kid := range p.kids {
			if !kid.Matches(s, tuple) {
				return false
			}
		}
		return true
	case kindOr:
		for _, kid := range p.kids {
			if kid.Matches(s, tuple) {
				return true
			}
		}
		return false
	case kindNot:
		return !p.kids[0].Matches(s, tuple)
	default:
		return false
	}
}
