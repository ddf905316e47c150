// Package predicate models query predicates — conjunctions, disjunctions,
// and negations of range and equality constraints (§2.2 of the paper) — and
// lowers them to unions of hyperrectangles over the normalized domain
// [0,1)^d. Every estimator in this repository consumes the lowered form.
package predicate

import (
	"fmt"
	"math"

	"quicksel/internal/geom"
)

// ColumnKind distinguishes how a column's values map onto the real line.
type ColumnKind int

const (
	// Real columns take values in a continuous interval [Min, Max].
	Real ColumnKind = iota
	// Integer columns take integer values in {Min, ..., Max}; value k is
	// mapped to the real interval [k, k+1) per §2.2.
	Integer
	// Categorical columns enumerate Max-Min+1 categories identified with
	// the integers {Min, ..., Max} (order-preserving), then treated like
	// Integer columns.
	Categorical
)

func (k ColumnKind) String() string {
	switch k {
	case Real:
		return "real"
	case Integer:
		return "integer"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("ColumnKind(%d)", int(k))
	}
}

// Column describes one attribute of a relation.
type Column struct {
	Name string     `json:"name"`
	Kind ColumnKind `json:"kind"`
	Min  float64    `json:"min"` // smallest value (category index for Categorical)
	Max  float64    `json:"max"` // largest value
}

// domain returns the column's real-line domain [lo, hi). Discrete columns
// extend the upper end by one so the last value k maps to [k, k+1).
func (c Column) domain() (lo, hi float64) {
	if c.Kind == Real {
		return c.Min, c.Max
	}
	return c.Min, c.Max + 1
}

// Schema is an ordered set of columns; it defines the domain box B0 and the
// normalization used throughout the repository.
type Schema struct {
	Cols []Column `json:"columns"`
}

// NewSchema validates and returns a schema; see Validate.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{Cols: cols}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate rejects empty schemas, inverted or non-finite ranges, ranges
// wider than a float64 holds, non-integral bounds for discrete columns, and
// zero-width real columns. A valid schema normalizes every non-NaN value to
// a number in [0, 1], never NaN. A Schema decoded from JSON has not been
// through NewSchema, so it must be validated before use.
func (s *Schema) Validate() error {
	if len(s.Cols) == 0 {
		return fmt.Errorf("predicate: schema needs at least one column")
	}
	for _, c := range s.Cols {
		if c.Min > c.Max {
			return fmt.Errorf("predicate: column %q has inverted range [%g, %g]", c.Name, c.Min, c.Max)
		}
		if math.IsNaN(c.Min) || math.IsNaN(c.Max) || math.IsInf(c.Min, 0) || math.IsInf(c.Max, 0) {
			return fmt.Errorf("predicate: column %q has non-finite range", c.Name)
		}
		if lo, hi := c.domain(); math.IsInf(hi-lo, 0) {
			return fmt.Errorf("predicate: column %q range [%g, %g] is wider than a float64 holds", c.Name, c.Min, c.Max)
		}
		if c.Kind != Real && (c.Min != math.Trunc(c.Min) || c.Max != math.Trunc(c.Max)) {
			return fmt.Errorf("predicate: discrete column %q needs integral bounds, got [%g, %g]", c.Name, c.Min, c.Max)
		}
		if c.Kind == Real && c.Min == c.Max {
			return fmt.Errorf("predicate: real column %q has zero-width range", c.Name)
		}
	}
	return nil
}

// MustSchema is NewSchema that panics on error; for tests and examples.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Dim returns the number of columns.
func (s *Schema) Dim() int { return len(s.Cols) }

// Domain returns the un-normalized domain box B0.
func (s *Schema) Domain() geom.Box {
	lo := make([]float64, s.Dim())
	hi := make([]float64, s.Dim())
	for i, c := range s.Cols {
		lo[i], hi[i] = c.domain()
	}
	return geom.Box{Lo: lo, Hi: hi}
}

// Normalize maps a raw value of column i into [0, 1).
func (s *Schema) Normalize(col int, v float64) float64 {
	lo, hi := s.Cols[col].domain()
	x := (v - lo) / (hi - lo)
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Denormalize maps a normalized coordinate back to the raw domain.
func (s *Schema) Denormalize(col int, x float64) float64 {
	lo, hi := s.Cols[col].domain()
	return lo + x*(hi-lo)
}

// NormalizePoint maps a raw tuple into the unit cube.
func (s *Schema) NormalizePoint(p []float64) []float64 {
	out := make([]float64, len(p))
	for i := range p {
		out[i] = s.Normalize(i, p[i])
	}
	return out
}

// ColumnIndex returns the index of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}
