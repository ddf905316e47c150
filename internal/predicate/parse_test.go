package predicate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"quicksel/internal/geom"
)

func parseSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Column{Name: "age", Kind: Integer, Min: 0, Max: 100},
		Column{Name: "salary", Kind: Real, Min: 0, Max: 200000},
		Column{Name: "state", Kind: Categorical, Min: 0, Max: 49},
	)
}

// parseVolume lowers the parsed predicate and returns its selected volume,
// for comparing text against programmatic construction.
func parseVolume(t *testing.T, s *Schema, input string) float64 {
	t.Helper()
	p, err := Parse(s, input)
	if err != nil {
		t.Fatalf("Parse(%q): %v", input, err)
	}
	boxes, err := p.Boxes(s)
	if err != nil {
		t.Fatalf("Boxes(%q): %v", input, err)
	}
	return geom.UnionVolume(boxes)
}

func TestParseEquivalences(t *testing.T) {
	s := parseSchema(t)
	tests := []struct {
		text string
		want *Predicate
	}{
		{"age >= 30 AND age < 40", And(AtLeast(0, 30), AtMost(0, 40))},
		{"salary >= 100000", AtLeast(1, 100000)},
		{"state = 7", Eq(2, 7)},
		{"state != 7", Not(Eq(2, 7))},
		{"state <> 7", Not(Eq(2, 7))},
		{"age BETWEEN 20 AND 29", Range(0, 20, 30)},
		{"state IN (1, 2, 3)", In(2, 1, 2, 3)},
		{"NOT salary < 50000", Not(AtMost(1, 50000))},
		{"age < 18 OR age > 65", Or(AtMost(0, 18), AtLeast(0, 66))},
		{"(age < 30 OR age > 60) AND state = 0", And(Or(AtMost(0, 30), AtLeast(0, 61)), Eq(2, 0))},
		{"30 <= age", AtLeast(0, 30)},
		{"100000 > salary", AtMost(1, 100000)},
		{"TRUE", All()},
	}
	for _, tt := range tests {
		t.Run(tt.text, func(t *testing.T) {
			got, err := Parse(s, tt.text)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			// Compare by lowered geometry (structural equality is too
			// brittle across equivalent forms).
			gb, err := got.Boxes(s)
			if err != nil {
				t.Fatal(err)
			}
			wb, err := tt.want.Boxes(s)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(geom.UnionVolume(gb)-geom.UnionVolume(wb)) > 1e-12 {
				t.Errorf("volume mismatch: parsed %g want %g", geom.UnionVolume(gb), geom.UnionVolume(wb))
			}
			// And by pointwise agreement on random tuples.
			rng := rand.New(rand.NewSource(1))
			dom := s.Domain()
			for k := 0; k < 200; k++ {
				tuple := make([]float64, s.Dim())
				for i := range tuple {
					tuple[i] = dom.Lo[i] + rng.Float64()*(dom.Hi[i]-dom.Lo[i])
				}
				if got.Matches(s, tuple) != tt.want.Matches(s, tuple) {
					t.Fatalf("pointwise mismatch at %v", tuple)
				}
			}
		})
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	s := parseSchema(t)
	a := parseVolume(t, s, "age < 30 and state = 1")
	b := parseVolume(t, s, "age < 30 AND state = 1")
	if a != b {
		t.Errorf("case-insensitive keywords: %g vs %g", a, b)
	}
}

func TestParsePrecedenceAndOverOr(t *testing.T) {
	s := parseSchema(t)
	// a OR b AND c must parse as a OR (b AND c).
	got := MustParse(s, "age < 10 OR age > 90 AND state = 0")
	want := Or(AtMost(0, 10), And(AtLeast(0, 91), Eq(2, 0)))
	rng := rand.New(rand.NewSource(2))
	dom := s.Domain()
	for k := 0; k < 300; k++ {
		tuple := make([]float64, s.Dim())
		for i := range tuple {
			tuple[i] = dom.Lo[i] + rng.Float64()*(dom.Hi[i]-dom.Lo[i])
		}
		if got.Matches(s, tuple) != want.Matches(s, tuple) {
			t.Fatalf("precedence mismatch at %v", tuple)
		}
	}
}

func TestParseDiscreteSemantics(t *testing.T) {
	s := parseSchema(t)
	// age <= 29 and age < 30 select the same integers.
	if a, b := parseVolume(t, s, "age <= 29"), parseVolume(t, s, "age < 30"); math.Abs(a-b) > 1e-12 {
		t.Errorf("age <= 29 (%g) should equal age < 30 (%g)", a, b)
	}
	// age > 29 and age >= 30 likewise.
	if a, b := parseVolume(t, s, "age > 29"), parseVolume(t, s, "age >= 30"); math.Abs(a-b) > 1e-12 {
		t.Errorf("age > 29 (%g) should equal age >= 30 (%g)", a, b)
	}
	// state = k selects exactly one of 50 categories.
	if v := parseVolume(t, s, "state = 3"); math.Abs(v-0.02) > 1e-12 {
		t.Errorf("state = 3 volume = %g, want 0.02", v)
	}
	// != selects the other 49.
	if v := parseVolume(t, s, "state != 3"); math.Abs(v-0.98) > 1e-12 {
		t.Errorf("state != 3 volume = %g, want 0.98", v)
	}
}

// On a discrete column a comparison covers whole cells [k, k+1), one per
// integer SQL selects, whatever the literal: the lowered volume in cells
// equals the number of integers in [0, 99] for which the comparison holds.
func TestParseFractionalLiteralsOnDiscreteColumn(t *testing.T) {
	s := MustSchema(Column{Name: "age", Kind: Integer, Min: 0, Max: 99})
	lits := []float64{29.5, 30, 30.5}
	type tc struct {
		where string
		holds func(k float64) bool
	}
	var cases []tc
	ops := map[string]func(k, v float64) bool{
		"=":  func(k, v float64) bool { return k == v },
		"!=": func(k, v float64) bool { return k != v },
		"<>": func(k, v float64) bool { return k != v },
		"<":  func(k, v float64) bool { return k < v },
		"<=": func(k, v float64) bool { return k <= v },
		">":  func(k, v float64) bool { return k > v },
		">=": func(k, v float64) bool { return k >= v },
	}
	for op, cmp := range ops {
		for _, v := range lits {
			cases = append(cases,
				tc{fmt.Sprintf("age %s %g", op, v), func(k float64) bool { return cmp(k, v) }},
				tc{fmt.Sprintf("%g %s age", v, op), func(k float64) bool { return cmp(v, k) }})
		}
	}
	for i, lo := range lits {
		for _, hi := range lits[i:] {
			cases = append(cases, tc{fmt.Sprintf("age BETWEEN %g AND %g", lo, hi), func(k float64) bool { return k >= lo && k <= hi }})
		}
	}
	for _, in := range [][]float64{{29.5}, {30}, {30.5}, lits} {
		vals := make([]string, len(in))
		for i, v := range in {
			vals[i] = fmt.Sprint(v)
		}
		cases = append(cases, tc{"age IN (" + strings.Join(vals, ", ") + ")", func(k float64) bool { return slices.Contains(in, k) }})
	}
	for _, c := range cases {
		want := 0
		for k := 0.0; k <= 99; k++ {
			if c.holds(k) {
				want++
			}
		}
		if got := parseVolume(t, s, c.where) * 100; math.Abs(got-float64(want)) > 1e-9 {
			t.Errorf("%s: %g cells, want the %d integers SQL selects", c.where, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	s := parseSchema(t)
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"unknown column", "height > 3"},
		{"real equality", "salary = 100"},
		{"real inequality", "salary != 100"},
		{"real IN", "salary IN (1, 2)"},
		{"missing op", "age 30"},
		{"missing number", "age >"},
		{"trailing garbage", "age > 30 xyz"},
		{"unbalanced paren", "(age > 30"},
		{"between missing and", "age BETWEEN 10 20"},
		{"between inverted", "age BETWEEN 30 AND 10"},
		{"in missing paren", "state IN 1, 2"},
		{"in unclosed", "state IN (1, 2"},
		{"bad char", "age > 30 && state = 1"},
		{"lone number", "42"},
		{"double op", "age > > 30"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(s, tc.input)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", tc.input)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Errorf("error %v is not a *ParseError", err)
			}
			if !strings.Contains(err.Error(), "parse error") {
				t.Errorf("error message %q lacks context", err)
			}
		})
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParse(parseSchema(t), "nope > 1")
}

func TestParseScientificNumbers(t *testing.T) {
	s := parseSchema(t)
	a := parseVolume(t, s, "salary < 1e5")
	b := parseVolume(t, s, "salary < 100000")
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("scientific notation: %g vs %g", a, b)
	}
	if v := parseVolume(t, s, "salary >= 1.5e5"); math.Abs(v-0.25) > 1e-12 {
		t.Errorf("salary >= 150k volume = %g, want 0.25", v)
	}
}

// Property: for random generated predicate texts built from a small
// grammar, Parse succeeds and the result agrees with the programmatic
// construction used to generate the text.
func TestPropertyParseRoundTrip(t *testing.T) {
	s := parseSchema(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		text, want := randomComparison(rng)
		got, err := Parse(s, text)
		if err != nil {
			return false
		}
		dom := s.Domain()
		for k := 0; k < 50; k++ {
			tuple := make([]float64, s.Dim())
			for i := range tuple {
				tuple[i] = dom.Lo[i] + rng.Float64()*(dom.Hi[i]-dom.Lo[i])
			}
			if got.Matches(s, tuple) != want.Matches(s, tuple) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomComparison emits one random comparison as (text, equivalent
// predicate). Only integer-valued bounds are used so discrete and real
// semantics match the builder helpers exactly.
func randomComparison(rng *rand.Rand) (string, *Predicate) {
	switch rng.Intn(5) {
	case 0:
		v := float64(rng.Intn(100))
		return sprintf("age >= %g", v), AtLeast(0, v)
	case 1:
		v := float64(rng.Intn(100))
		return sprintf("age < %g", v), AtMost(0, v)
	case 2:
		v := float64(rng.Intn(50))
		return sprintf("state = %g", v), Eq(2, v)
	case 3:
		lo := float64(rng.Intn(50))
		hi := lo + float64(rng.Intn(40))
		return sprintf("age BETWEEN %g AND %g", lo, hi), Range(0, lo, hi+1)
	default:
		v := float64(rng.Intn(190000))
		return sprintf("salary <= %g", v), AtMost(1, v)
	}
}

func sprintf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
