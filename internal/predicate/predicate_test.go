package predicate

import (
	"errors"
	"fmt"
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

// oneBox lowers p and requires it to select exactly one box.
func oneBox(t *testing.T, p *Predicate, s *Schema) geom.Box {
	t.Helper()
	boxes, err := p.Boxes(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 {
		t.Fatalf("%s lowers to %d boxes, want 1", p, len(boxes))
	}
	return boxes[0]
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
	b := oneBox(t, AtLeast(1, 0), s)
	if b.Lo[1] != 0.5 || b.Hi[1] != 1 {
		t.Errorf("AtLeast box dim1 = [%g, %g), want [0.5, 1)", b.Lo[1], b.Hi[1])
	}
	b2 := oneBox(t, AtMost(0, 100), s) // beyond domain clamps to full range
	if b2.Lo[0] != 0 || b2.Hi[0] != 1 {
		t.Errorf("AtMost clamp = [%g, %g)", b2.Lo[0], b2.Hi[0])
	}
}

func TestEqOnCategorical(t *testing.T) {
	s := testSchema(t)
	b := oneBox(t, Eq(2, 1), s)
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
	b := oneBox(t, And(Range(0, 0, 5), Range(1, 0, 5), Eq(2, 0)), s)
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

// A disjunction over two columns is no hyperrectangle: it lowers to more
// than one box.
func TestBoxRejectsNonRectangular(t *testing.T) {
	s := testSchema(t)
	p := Or(Range(0, 0, 2), Range(1, 0, 2))
	boxes, err := p.Boxes(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) < 2 {
		t.Errorf("%s lowers to %d boxes, want more than one", p, len(boxes))
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

// referenceBoxes is the lowering Boxes replaced, kept as its reference:
// every node lowers to boxes cut from a fresh unit cube, a conjunction
// intersects them pairwise into new boxes and stops at its first empty
// conjunct, and Disjointify runs on whatever comes back.
func referenceBoxes(p *Predicate, s *Schema) ([]geom.Box, error) {
	raw, err := referenceLower(p, s)
	if err != nil {
		return nil, err
	}
	return geom.Disjointify(raw), nil
}

func referenceLower(p *Predicate, s *Schema) ([]geom.Box, error) {
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
			return nil, nil
		}
		b := unit.Clone()
		b.Lo[c.Col] = s.Normalize(c.Col, lo)
		b.Hi[c.Col] = s.Normalize(c.Col, hi)
		return []geom.Box{b}, nil
	case kindAnd:
		acc := []geom.Box{unit}
		for _, kid := range p.kids {
			kb, err := referenceLower(kid, s)
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
			kb, err := referenceLower(kid, s)
			if err != nil {
				return nil, err
			}
			acc = append(acc, kb...)
		}
		return acc, nil
	case kindNot:
		kb, err := referenceLower(p.kids[0], s)
		if err != nil {
			return nil, err
		}
		return geom.SubtractAll(unit, kb), nil
	default:
		return nil, fmt.Errorf("predicate: unknown node kind %d", p.k)
	}
}

// sameBoxes reports whether Boxes and the reference lowered p alike: both
// fail, or both return the same boxes in the same order with the same
// corner bits. One difference is allowed, and required: where the
// reference kept a −0 corner (a leaf's −0 bound that reached the result
// unintersected), Boxes has +0, since every box starts as the unit cube
// and math.Max(+0, −0) is +0.
func sameBoxes(p *Predicate, s *Schema) (string, bool) {
	got, gotErr := p.Boxes(s)
	want, wantErr := referenceBoxes(p, s)
	if (gotErr != nil) != (wantErr != nil) {
		return fmt.Sprintf("error %v, reference error %v", gotErr, wantErr), false
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d boxes, reference %d", len(got), len(want)), false
	}
	bits := func(v float64) uint64 {
		if v == 0 {
			return 0
		}
		return math.Float64bits(v)
	}
	for i := range got {
		for d := range got[i].Lo {
			if math.Float64bits(got[i].Lo[d]) != bits(want[i].Lo[d]) || math.Float64bits(got[i].Hi[d]) != bits(want[i].Hi[d]) {
				return fmt.Sprintf("box %d is %v, reference %v", i, got[i], want[i]), false
			}
		}
	}
	return "", true
}

// propSchema has a real column on either side of zero, an integer column
// and a categorical one; x and n start at +0, where a −0 bound lands.
func propSchema() *Schema {
	return MustSchema(
		Column{Name: "x", Kind: Real, Min: 0, Max: 10},
		Column{Name: "y", Kind: Real, Min: -5, Max: 5},
		Column{Name: "n", Kind: Integer, Min: 0, Max: 20},
		Column{Name: "cat", Kind: Categorical, Min: 0, Max: 3},
	)
}

// randomBound draws a bound for column col: an open side, a domain end, a
// value in or up to a fifth outside the domain, −0, an integer (on
// discrete columns the values Eq and IN take), or the neighbour of a
// domain end one ulp away, whose normalized box can collapse to zero width.
func randomBound(rng *rand.Rand, s *Schema, col int) float64 {
	lo, hi := s.Cols[col].domain()
	w := hi - lo
	switch rng.Intn(8) {
	case 0:
		return math.Inf(-1)
	case 1:
		return math.Inf(1)
	case 2:
		return []float64{lo, hi}[rng.Intn(2)]
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return math.Floor(lo - 2 + rng.Float64()*(w+4))
	case 5:
		return math.Nextafter(lo, math.Inf(1))
	default:
		return lo - w/5 + rng.Float64()*w*1.4
	}
}

// randomTree draws a valid predicate over s: leaves of every constructor,
// some with inverted bounds, and And, Or, Not and All nodes up to the
// given depth.
func randomTree(rng *rand.Rand, s *Schema, depth int) *Predicate {
	kids := func() []*Predicate {
		ps := make([]*Predicate, 1+rng.Intn(4))
		for i := range ps {
			ps[i] = randomTree(rng, s, depth-1)
		}
		return ps
	}
	if depth > 0 {
		switch rng.Intn(8) {
		case 0, 1:
			return And(kids()...)
		case 2, 3:
			return Or(kids()...)
		case 4:
			return Not(randomTree(rng, s, depth-1))
		}
	}
	col := rng.Intn(s.Dim())
	switch rng.Intn(7) {
	case 0:
		return All()
	case 1:
		return AtLeast(col, randomBound(rng, s, col))
	case 2:
		return AtMost(col, randomBound(rng, s, col))
	case 3:
		if s.Cols[col].Kind != Real {
			return Eq(col, randomBound(rng, s, col))
		}
	case 4:
		if s.Cols[col].Kind != Real {
			return In(col, randomBound(rng, s, col), randomBound(rng, s, col))
		}
	}
	lo, hi := randomBound(rng, s, col), randomBound(rng, s, col)
	if lo > hi && rng.Intn(4) > 0 {
		lo, hi = hi, lo // mostly ordered, so that conjunctions often select something
	}
	return Range(col, lo, hi)
}

// Property: the fold returns the reference's boxes, bit for bit and in the
// same order, on random valid trees.
func TestBoxesMatchReference(t *testing.T) {
	s := propSchema()
	rng := rand.New(rand.NewSource(1))
	var several, none int
	const trees = 100_000
	for i := 0; i < trees; i++ {
		p := randomTree(rng, s, 4)
		if msg, ok := sameBoxes(p, s); !ok {
			t.Fatalf("tree %d, %s: %s", i, p, msg)
		}
		switch boxes, _ := p.Boxes(s); {
		case len(boxes) == 0:
			none++
		case len(boxes) > 1:
			several++
		}
	}
	t.Logf("%d trees: %d lower to several boxes, %d to none", trees, several, none)
	if several < trees/10 || none < trees/10 {
		t.Errorf("generator covers too little: %d trees lower to several boxes and %d to none, want %d each", several, none, trees/10)
	}
}

// Every node is checked: a nil node, a NaN bound or an out-of-range column
// after a conjunct that already selects nothing is still an error, also
// nested under Or and Not.
func TestEveryNodeIsChecked(t *testing.T) {
	s := testSchema(t)
	for name, bad := range map[string]*Predicate{
		"nil":    nil,
		"nan":    Range(0, math.NaN(), 1),
		"column": Range(7, 0, 1),
	} {
		afterEmpty := And(Range(0, 5, 3), bad)
		for shape, p := range map[string]*Predicate{
			"and": afterEmpty,
			"or":  Or(afterEmpty, Range(1, 0, 1)),
			"not": Not(afterEmpty),
		} {
			if boxes, err := p.Boxes(s); err == nil {
				t.Errorf("%s %s: lowered to %v, want an error", name, shape, boxes)
			}
		}
	}
}

// wideConjunction is a batch-wide clause: a lower and an upper bound on
// each column of the 8-column wideSchema, leaves/2 columns in all.
func wideConjunction(leaves int) *Predicate {
	kids := make([]*Predicate, 0, leaves)
	for c := 0; c < leaves/2; c++ {
		kids = append(kids, AtLeast(c, 10+float64(c)), AtMost(c, 60+float64(c)))
	}
	return And(kids...)
}

func wideSchema() *Schema {
	cols := make([]Column, 8)
	for i := range cols {
		cols[i] = Column{Name: fmt.Sprintf("c%d", i), Kind: Real, Min: 0, Max: 100}
		if i%2 == 1 {
			cols[i].Kind = Integer
		}
	}
	return MustSchema(cols...)
}

// A conjunction of any length narrows the one box Boxes starts from.
func TestConjunctionLowersToOneBox(t *testing.T) {
	s := wideSchema()
	allocs := func(leaves int) float64 {
		p := wideConjunction(leaves)
		return testing.AllocsPerRun(100, func() {
			if _, err := p.Boxes(s); err != nil {
				t.Fatal(err)
			}
		})
	}
	two, sixteen := allocs(2), allocs(16)
	if sixteen > two || sixteen > 4 {
		t.Errorf("Boxes allocates %v times for 16 leaves and %v for 2; want at most 4, and no more for 16", sixteen, two)
	}
}

func BenchmarkBoxes(b *testing.B) {
	s := wideSchema()
	for _, bc := range []struct {
		name string
		p    *Predicate
	}{
		{"and4", wideConjunction(4)},
		{"and16", wideConjunction(16)},
		{"or", Or(AtMost(0, 40), AtLeast(1, 60))},
		{"not", Not(wideConjunction(4))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := bc.p.Boxes(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
