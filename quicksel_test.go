package quicksel

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"quicksel/internal/estimator"
	"quicksel/internal/geom"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "x", Kind: Real, Min: 0, Max: 100},
		Column{Name: "y", Kind: Real, Min: 0, Max: 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsNilSchema(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("expected error for nil schema")
	}
}

// A schema decoded from JSON skips NewSchema; New must still reject one
// whose normalization would produce NaN.
func TestNewRejectsInvalidSchema(t *testing.T) {
	for _, col := range []Column{
		{Name: "x", Kind: Real, Min: 5, Max: 5},
		{Name: "x", Kind: Real, Min: -1e308, Max: 1e308},
		{Name: "x", Kind: Real, Min: 1, Max: 0},
	} {
		if _, err := New(&Schema{Cols: []Column{col}}); err == nil {
			t.Errorf("New with column %+v: want an error", col)
		}
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	for _, lambda := range []float64{-3, math.NaN(), math.Inf(1)} {
		_, err := New(testSchema(t), WithLambda(lambda))
		if err == nil || !strings.Contains(err.Error(), "Lambda") {
			t.Errorf("WithLambda(%g): error %v, want one naming Lambda", lambda, err)
		}
	}
}

func TestObserveAndEstimate(t *testing.T) {
	e, err := New(testSchema(t), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	// The left half holds 90% of the data.
	if err := e.Observe(Range(0, 0, 50), 0.9); err != nil {
		t.Fatal(err)
	}
	got, err := e.Estimate(Range(0, 0, 50))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.9) > 0.05 {
		t.Errorf("Estimate = %g, want ≈0.9", got)
	}
	// Complement estimate follows from normalization.
	comp, err := e.Estimate(Range(0, 50, 100))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(comp-0.1) > 0.05 {
		t.Errorf("complement estimate = %g, want ≈0.1", comp)
	}
}

func TestEstimateBeforeAnyObservationIsUniform(t *testing.T) {
	e, err := New(testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Estimate(And(Range(0, 0, 50), Range(1, 0, 50)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 1e-9 {
		t.Errorf("uniform estimate = %g, want 0.25", got)
	}
}

func TestObserveDisjunction(t *testing.T) {
	e, err := New(testSchema(t), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	p := Or(Range(0, 0, 25), Range(0, 75, 100))
	if err := e.Observe(p, 0.5); err != nil {
		t.Fatal(err)
	}
	got, err := e.Estimate(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 0.1 {
		t.Errorf("Estimate of observed disjunction = %g, want ≈0.5", got)
	}
}

func TestObserveEmptyPredicateIsNoop(t *testing.T) {
	e, err := New(testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(Or(), 0.5); err != nil {
		t.Fatal(err)
	}
	if e.NumObserved() != 0 {
		t.Error("empty predicate should not be recorded")
	}
}

func TestObserveErrorsOnBadColumn(t *testing.T) {
	e, err := New(testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(Range(9, 0, 1), 0.5); err == nil {
		t.Error("expected lowering error")
	}
	if _, err := e.Estimate(Range(9, 0, 1)); err == nil {
		t.Error("expected lowering error")
	}
}

func TestTrainExplicitAndCounters(t *testing.T) {
	e, err := New(testSchema(t), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := e.Observe(Range(0, float64(i*10), float64(i*10+20)), 0.2); err != nil {
			t.Fatal(err)
		}
	}
	if e.NumObserved() != 5 {
		t.Errorf("NumObserved = %d, want 5", e.NumObserved())
	}
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	if e.ParamCount() != 20 { // 4 subpops per query
		t.Errorf("ParamCount = %d, want 20", e.ParamCount())
	}
}

func TestOptionsArePlumbedThrough(t *testing.T) {
	e, err := New(testSchema(t), WithSeed(4), WithFixedSubpopulations(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(Range(0, 0, 50), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	if e.ParamCount() != 8 {
		t.Errorf("ParamCount = %d, want 8 (fixed)", e.ParamCount())
	}

	it, err := New(testSchema(t), WithSeed(4), WithIterativeSolver())
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Observe(Range(0, 0, 50), 0.5); err != nil {
		t.Fatal(err)
	}
	got, err := it.Estimate(Range(0, 0, 50))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 0.1 {
		t.Errorf("iterative estimate = %g, want ≈0.5", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	e, err := New(testSchema(t), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				lo := float64((w*25 + i) % 80)
				_ = e.Observe(Range(0, lo, lo+20), 0.2)
				_, _ = e.Estimate(Range(0, lo, lo+10))
			}
		}(w)
	}
	wg.Wait()
	if e.NumObserved() != 100 {
		t.Errorf("NumObserved = %d, want 100", e.NumObserved())
	}
}

// failingBackend fails Estimate for a clause whose first box starts at a
// column-0 corner in bad and answers the rest from the wrapped backend. No
// real backend fails a clause that lowered, so it stands in for an estimate
// error inside a batch split over goroutines.
type failingBackend struct {
	estimator.Backend
	bad map[float64]bool
}

func (b failingBackend) Estimate(boxes []geom.Box) (float64, error) {
	if lo := boxes[0].Lo[0]; b.bad[lo] {
		return 0, fmt.Errorf("bad clause at %g", lo)
	}
	return b.Backend.Estimate(boxes)
}

// An estimate error inside a split batch is reported for the lowest failing
// index, whichever goroutine meets its failure first.
func TestEstimateBatchReportsLowestEstimateError(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(prev)
	s := testSchema(t)
	inner, err := New(s, WithMethod("sthole"))
	if err != nil {
		t.Fatal(err)
	}
	e := &Estimator{schema: s, backend: failingBackend{
		Backend: inner.backend,
		bad:     map[float64]bool{s.Normalize(0, 17): true, s.Normalize(0, 45): true},
	}}
	preds := make([]*Predicate, 64)
	for i := range preds {
		preds[i] = Range(0, float64(i), float64(i+1))
	}
	want := fmt.Sprintf("quicksel: estimate 17: bad clause at %g", s.Normalize(0, 17))
	for iter := 0; iter < 20; iter++ {
		if _, err := e.EstimateBatch(preds); err == nil || err.Error() != want {
			t.Fatalf("EstimateBatch error %v, want %s", err, want)
		}
	}
}

func TestCategoricalWorkflow(t *testing.T) {
	s, err := NewSchema(
		Column{Name: "state", Kind: Categorical, Min: 0, Max: 49},
		Column{Name: "year", Kind: Integer, Min: 2000, Max: 2020},
	)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(s, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	// State 3 holds 30% of rows.
	if err := e.Observe(Eq(0, 3), 0.3); err != nil {
		t.Fatal(err)
	}
	got, err := e.Estimate(Eq(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.3) > 0.05 {
		t.Errorf("categorical estimate = %g, want ≈0.3", got)
	}
	// IN-list estimate includes the learned state.
	in, err := e.Estimate(In(0, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	if in < got-1e-9 {
		t.Errorf("IN-list estimate %g should be at least Eq estimate %g", in, got)
	}
}

func TestWhereClauseWorkflow(t *testing.T) {
	s, err := NewSchema(
		Column{Name: "age", Kind: Integer, Min: 18, Max: 90},
		Column{Name: "salary", Kind: Real, Min: 0, Max: 200000},
	)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(s, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ObserveWhere("age BETWEEN 30 AND 49 AND salary >= 1e5", 0.15); err != nil {
		t.Fatal(err)
	}
	got, err := e.EstimateWhere("age BETWEEN 30 AND 49 AND salary >= 100000")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.15) > 0.05 {
		t.Errorf("EstimateWhere = %g, want ≈0.15", got)
	}
	if err := e.ObserveWhere("bogus > 3", 0.1); err == nil {
		t.Error("expected parse error")
	}
	if _, err := e.EstimateWhere("salary = 5"); err == nil {
		t.Error("expected real-equality parse error")
	}
}
