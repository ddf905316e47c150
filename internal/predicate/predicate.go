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
// exactly the region the predicate selects. An error is reported for nil
// predicates, out-of-range column references and NaN bounds.
func (p *Predicate) Boxes(s *Schema) ([]geom.Box, error) {
	raw, err := p.lower(s)
	if err != nil {
		return nil, err
	}
	return geom.Disjointify(raw), nil
}

// Box lowers a conjunctive predicate to its single bounding box. It returns
// an error if the predicate does not lower to exactly one box (i.e. it
// contains disjunctions or negations with non-rectangular complements).
// QuickSel's fast path (§3.2) consumes single boxes.
func (p *Predicate) Box(s *Schema) (geom.Box, error) {
	boxes, err := p.Boxes(s)
	if err != nil {
		return geom.Box{}, err
	}
	switch len(boxes) {
	case 0:
		// Empty selection: a zero-volume box at the origin.
		return geom.NewBox(make([]float64, s.Dim()), make([]float64, s.Dim())), nil
	case 1:
		return boxes[0], nil
	default:
		return geom.Box{}, fmt.Errorf("predicate: %s lowers to %d boxes, not a hyperrectangle", p, len(boxes))
	}
}

// lower produces a (possibly overlapping) set of boxes for the predicate.
// A nil node, at the top or nested, is an error.
func (p *Predicate) lower(s *Schema) ([]geom.Box, error) {
	if p == nil {
		return nil, errors.New("predicate: nil predicate")
	}
	unit := geom.Unit(s.Dim())
	switch p.k {
	case kindAll:
		return []geom.Box{unit}, nil
	case kindLeaf:
		c := p.leaf
		if c.Col < 0 || c.Col >= s.Dim() {
			return nil, fmt.Errorf("predicate: column %d out of range [0,%d)", c.Col, s.Dim())
		}
		if math.IsNaN(c.Lo) || math.IsNaN(c.Hi) {
			return nil, fmt.Errorf("predicate: NaN bound on column %d", c.Col)
		}
		lo, hi := c.Lo, c.Hi
		dLo, dHi := s.Cols[c.Col].domain()
		if math.IsInf(lo, -1) || lo < dLo {
			lo = dLo
		}
		if math.IsInf(hi, 1) || hi > dHi {
			hi = dHi
		}
		if hi <= lo {
			return nil, nil // empty selection
		}
		b := unit.Clone()
		b.Lo[c.Col] = s.Normalize(c.Col, lo)
		b.Hi[c.Col] = s.Normalize(c.Col, hi)
		return []geom.Box{b}, nil
	case kindAnd:
		acc := []geom.Box{unit}
		for _, kid := range p.kids {
			kb, err := kid.lower(s)
			if err != nil {
				return nil, err
			}
			var next []geom.Box
			for _, a := range acc {
				for _, b := range kb {
					if inter, ok := a.Intersect(b); ok {
						next = append(next, inter)
					}
				}
			}
			acc = next
			if len(acc) == 0 {
				return nil, nil
			}
		}
		return acc, nil
	case kindOr:
		var acc []geom.Box
		for _, kid := range p.kids {
			kb, err := kid.lower(s)
			if err != nil {
				return nil, err
			}
			acc = append(acc, kb...)
		}
		return acc, nil
	case kindNot:
		kb, err := p.kids[0].lower(s)
		if err != nil {
			return nil, err
		}
		return geom.SubtractAll(unit, kb), nil
	default:
		return nil, fmt.Errorf("predicate: unknown node kind %d", p.k)
	}
}

// Matches evaluates the predicate against a raw tuple. This is the oracle
// the lowered geometry must agree with; the data substrate uses it to
// compute exact selectivities.
func (p *Predicate) Matches(s *Schema, tuple []float64) bool {
	switch p.k {
	case kindAll:
		return true
	case kindLeaf:
		c := p.leaf
		v := tuple[c.Col]
		lo, hi := c.Lo, c.Hi
		dLo, dHi := s.Cols[c.Col].domain()
		if math.IsInf(lo, -1) || lo < dLo {
			lo = dLo
		}
		if math.IsInf(hi, 1) || hi > dHi {
			hi = dHi
		}
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
