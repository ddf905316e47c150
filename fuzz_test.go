package quicksel_test

import (
	"math"
	"testing"

	"quicksel"
)

// FuzzEstimateWhere drives arbitrary WHERE text through Parse, lowering and
// the estimate kernel of a small trained estimator. Text that parses and
// lowers must estimate to a number in [0, 1], never NaN, and the single and
// batch paths must agree to the bit.
func FuzzEstimateWhere(f *testing.F) {
	est := trainedEstimator(f, quicksel.WithFixedSubpopulations(50))
	schema := est.Schema()
	for _, w := range []string{
		"age BETWEEN 18 AND 29",
		"age BETWEEN 30 AND 49 AND salary >= 100000",
		"state IN (3, 7) OR salary >= 150000",
		"NOT (age >= 65)",
		"NOT (state IN (1, 2) OR age < 30)",
		"salary < 40000 OR salary >= 1.5e5",
		"age != 40 AND state = 7",
		"(age > 20 OR state <= 3) AND NOT salary BETWEEN -1e4 AND 2e5",
	} {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, w string) {
		if len(w) > 512 {
			t.Skip("input over 512 bytes")
		}
		p, err := quicksel.Parse(schema, w)
		if err != nil {
			return
		}
		if _, err := p.Boxes(schema); err != nil {
			return
		}
		got, err := est.Estimate(p)
		if err != nil {
			t.Fatalf("Estimate(%q): %v", w, err)
		}
		if math.IsNaN(got) || got < 0 || got > 1 {
			t.Fatalf("Estimate(%q) = %v, want a value in [0, 1]", w, got)
		}
		batch, err := est.EstimateBatchWhere([]string{w})
		if err != nil {
			t.Fatalf("EstimateBatchWhere(%q): %v", w, err)
		}
		if math.Float64bits(batch[0]) != math.Float64bits(got) {
			t.Fatalf("EstimateBatchWhere(%q) = %v, Estimate = %v", w, batch[0], got)
		}
	})
}
