package predicate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"quicksel/internal/geom"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "x", Kind: Real, Min: 0, Max: 10},
		Column{Name: "y", Kind: Real, Min: -5, Max: 5},
		Column{Name: "cat", Kind: Categorical, Min: 0, Max: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaErrors(t *testing.T) {
	tests := []struct {
		name string
		cols []Column
	}{
		{"empty", nil},
		{"inverted", []Column{{Name: "a", Min: 2, Max: 1}}},
		{"nan", []Column{{Name: "a", Min: math.NaN(), Max: 1}}},
		{"inf", []Column{{Name: "a", Min: 0, Max: math.Inf(1)}}},
		{"overflowing width", []Column{{Name: "a", Min: -1e308, Max: 1e308}}},
		{"fractional int", []Column{{Name: "a", Kind: Integer, Min: 0, Max: 2.5}}},
		{"zero-width real", []Column{{Name: "a", Kind: Real, Min: 1, Max: 1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewSchema(tt.cols...); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema(t)
	if s.Dim() != 3 {
		t.Fatalf("Dim = %d", s.Dim())
	}
	dom := s.Domain()
	// Categorical column with 4 categories spans [0, 4).
	if dom.Lo[2] != 0 || dom.Hi[2] != 4 {
		t.Errorf("categorical domain = [%g, %g), want [0, 4)", dom.Lo[2], dom.Hi[2])
	}
	if got := s.Normalize(0, 5); got != 0.5 {
		t.Errorf("Normalize(0,5) = %g, want 0.5", got)
	}
	if got := s.Normalize(1, -5); got != 0 {
		t.Errorf("Normalize(1,-5) = %g, want 0", got)
	}
	if got := s.Normalize(0, 99); got != 1 {
		t.Errorf("out-of-range should clamp to 1, got %g", got)
	}
	if got := s.Denormalize(0, 0.5); got != 5 {
		t.Errorf("Denormalize = %g, want 5", got)
	}
	if s.ColumnIndex("y") != 1 || s.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex wrong")
	}
	p := s.NormalizePoint([]float64{5, 0, 2})
	if p[0] != 0.5 || p[1] != 0.5 || p[2] != 0.5 {
		t.Errorf("NormalizePoint = %v", p)
	}
}

func TestRangeLowering(t *testing.T) {
	s := testSchema(t)
	boxes, err := Range(0, 2, 4).Boxes(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 {
		t.Fatalf("got %d boxes", len(boxes))
	}
	b := boxes[0]
	if b.Lo[0] != 0.2 || b.Hi[0] != 0.4 {
		t.Errorf("dim 0 = [%g, %g), want [0.2, 0.4)", b.Lo[0], b.Hi[0])
	}
	// Unconstrained dims span [0,1).
	if b.Lo[1] != 0 || b.Hi[1] != 1 {
		t.Errorf("dim 1 should be unconstrained, got [%g, %g)", b.Lo[1], b.Hi[1])
	}
}

func TestOneSidedAndClamping(t *testing.T) {
	s := testSchema(t)
	b, err := AtLeast(1, 0).Box(s)
	if err != nil {
		t.Fatal(err)
	}
	if b.Lo[1] != 0.5 || b.Hi[1] != 1 {
		t.Errorf("AtLeast box dim1 = [%g, %g), want [0.5, 1)", b.Lo[1], b.Hi[1])
	}
	b2, err := AtMost(0, 100).Box(s) // beyond domain clamps to full range
	if err != nil {
		t.Fatal(err)
	}
	if b2.Lo[0] != 0 || b2.Hi[0] != 1 {
		t.Errorf("AtMost clamp = [%g, %g)", b2.Lo[0], b2.Hi[0])
	}
}

func TestEqOnCategorical(t *testing.T) {
	s := testSchema(t)
	b, err := Eq(2, 1).Box(s)
	if err != nil {
		t.Fatal(err)
	}
	// Category 1 of 4 occupies [0.25, 0.5) normalized.
	if b.Lo[2] != 0.25 || b.Hi[2] != 0.5 {
		t.Errorf("Eq box = [%g, %g), want [0.25, 0.5)", b.Lo[2], b.Hi[2])
	}
	if v := b.Volume(); math.Abs(v-0.25) > 1e-12 {
		t.Errorf("Eq volume = %g, want 0.25", v)
	}
}

func TestAndIntersects(t *testing.T) {
	s := testSchema(t)
	p := And(Range(0, 0, 5), Range(1, 0, 5), Eq(2, 0))
	b, err := p.Box(s)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * 0.5 * 0.25
	if math.Abs(b.Volume()-want) > 1e-12 {
		t.Errorf("volume = %g, want %g", b.Volume(), want)
	}
}

func TestContradictionIsEmpty(t *testing.T) {
	s := testSchema(t)
	p := And(Range(0, 0, 2), Range(0, 5, 7))
	boxes, err := p.Boxes(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 0 {
		t.Errorf("contradiction should lower to no boxes, got %v", boxes)
	}
	b, err := p.Box(s)
	if err != nil {
		t.Fatal(err)
	}
	if !b.IsEmpty() {
		t.Errorf("Box of contradiction should be empty, got %v", b)
	}
}

func TestOrDisjointifies(t *testing.T) {
	s := testSchema(t)
	p := Or(Range(0, 0, 6), Range(0, 4, 10)) // overlapping union covers all of x
	boxes, err := p.Boxes(s)
	if err != nil {
		t.Fatal(err)
	}
	if v := geom.UnionVolume(boxes); math.Abs(v-1) > 1e-12 {
		t.Errorf("union volume = %g, want 1", v)
	}
	for i := range boxes {
		for j := i + 1; j < len(boxes); j++ {
			if boxes[i].Overlaps(boxes[j]) {
				t.Error("Boxes must return disjoint boxes")
			}
		}
	}
}

func TestNotComplement(t *testing.T) {
	s := testSchema(t)
	p := Not(Range(0, 0, 5))
	boxes, err := p.Boxes(s)
	if err != nil {
		t.Fatal(err)
	}
	if v := geom.UnionVolume(boxes); math.Abs(v-0.5) > 1e-12 {
		t.Errorf("complement volume = %g, want 0.5", v)
	}
	// Double negation restores the region.
	boxes2, err := Not(p).Boxes(s)
	if err != nil {
		t.Fatal(err)
	}
	if v := geom.UnionVolume(boxes2); math.Abs(v-0.5) > 1e-12 {
		t.Errorf("double-negation volume = %g, want 0.5", v)
	}
}

func TestBoxRejectsNonRectangular(t *testing.T) {
	s := testSchema(t)
	p := Or(Range(0, 0, 2), Range(1, 0, 2))
	if _, err := p.Box(s); err == nil {
		t.Error("expected error lowering a disjunction to a single box")
	}
}

func TestColumnOutOfRange(t *testing.T) {
	s := testSchema(t)
	if _, err := Range(7, 0, 1).Boxes(s); err == nil {
		t.Error("expected out-of-range column error")
	}
	if _, err := Not(Range(-1, 0, 1)).Boxes(s); err == nil {
		t.Error("expected error to propagate through Not")
	}
}

func TestEmptyOrMatchesNothing(t *testing.T) {
	s := testSchema(t)
	p := Or()
	boxes, err := p.Boxes(s)
	if err != nil {
		t.Fatal(err)
	}
	if geom.UnionVolume(boxes) != 0 {
		t.Errorf("Or() should select nothing, got %v", boxes)
	}
	if p.Matches(s, []float64{1, 0, 0}) {
		t.Error("Or() must match no tuple")
	}
}

func TestString(t *testing.T) {
	p := And(Range(0, 1, 2), Not(Eq(2, 1)))
	got := p.String()
	if got == "" || got == "?" {
		t.Errorf("String = %q", got)
	}
	if All().String() != "TRUE" {
		t.Error("All().String() should be TRUE")
	}
}

// randomPredicate builds a random predicate tree of bounded depth.
func randomPredicate(rng *rand.Rand, s *Schema, depth int) *Predicate {
	if depth == 0 || rng.Float64() < 0.4 {
		col := rng.Intn(s.Dim())
		c := s.Cols[col]
		lo, hi := c.domain()
		a := lo + rng.Float64()*(hi-lo)
		b := lo + rng.Float64()*(hi-lo)
		if a > b {
			a, b = b, a
		}
		return Range(col, a, b)
	}
	switch rng.Intn(3) {
	case 0:
		return And(randomPredicate(rng, s, depth-1), randomPredicate(rng, s, depth-1))
	case 1:
		return Or(randomPredicate(rng, s, depth-1), randomPredicate(rng, s, depth-1))
	default:
		return Not(randomPredicate(rng, s, depth-1))
	}
}

// Property: lowered geometry agrees with direct tuple evaluation — a random
// raw tuple matches the predicate iff its normalized image is covered by the
// lowered boxes. This is the key soundness property of the whole lowering.
func TestPropertyLoweringAgreesWithMatches(t *testing.T) {
	s := testSchema(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPredicate(rng, s, 3)
		boxes, err := p.Boxes(s)
		if err != nil {
			return false
		}
		dom := s.Domain()
		for k := 0; k < 40; k++ {
			tuple := make([]float64, s.Dim())
			for i := range tuple {
				tuple[i] = dom.Lo[i] + rng.Float64()*(dom.Hi[i]-dom.Lo[i])
			}
			if p.Matches(s, tuple) != geom.CoversPoint(boxes, s.NormalizePoint(tuple)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: the boxes returned by Boxes are pairwise disjoint and inside
// the unit cube.
func TestPropertyBoxesDisjointInUnit(t *testing.T) {
	s := testSchema(t)
	unit := geom.Unit(s.Dim())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPredicate(rng, s, 3)
		boxes, err := p.Boxes(s)
		if err != nil {
			return false
		}
		for i := range boxes {
			if !unit.ContainsBox(boxes[i]) {
				return false
			}
			for j := i + 1; j < len(boxes); j++ {
				if boxes[i].Overlaps(boxes[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
