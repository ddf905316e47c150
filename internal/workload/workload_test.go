package workload

import (
	"math"
	"math/rand"
	"testing"

	"quicksel/internal/geom"
	"quicksel/internal/predicate"
	"quicksel/internal/table"
)

func TestNewGaussianBasics(t *testing.T) {
	ds, err := NewGaussian(GaussianConfig{Dim: 2, Corr: 0.5, Rows: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Table.Rows() != 2000 {
		t.Fatalf("Rows = %d", ds.Table.Rows())
	}
	if ds.Table.ModifiedFraction() != 0 {
		t.Error("fresh dataset should have reset modification counter")
	}
	// Values stay inside the schema domain.
	dom := ds.Schema.Domain()
	ds.Table.Scan(func(_ int, tuple []float64) {
		if !dom.Contains(tuple) {
			t.Fatalf("tuple %v escapes domain %v", tuple, dom)
		}
	})
}

func TestGaussianCorrelationIsRealized(t *testing.T) {
	for _, corr := range []float64{0, 0.8} {
		ds, err := NewGaussian(GaussianConfig{Dim: 2, Corr: corr, Rows: 20000, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		x, y := ds.Table.Column(0), ds.Table.Column(1)
		got := pearson(x, y)
		if math.Abs(got-corr) > 0.05 {
			t.Errorf("corr=%g: sample correlation = %g", corr, got)
		}
	}
}

func TestGaussianConfigErrors(t *testing.T) {
	if _, err := NewGaussian(GaussianConfig{Dim: 0, Rows: 10}); err == nil {
		t.Error("expected error for Dim=0")
	}
	if _, err := NewGaussian(GaussianConfig{Dim: 2, Rows: -1}); err == nil {
		t.Error("expected error for negative rows")
	}
	if _, err := NewGaussian(GaussianConfig{Dim: 2, Corr: -0.5, Rows: 10}); err == nil {
		t.Error("expected error for negative correlation")
	}
	// Corr exactly 1 degrades to 0.999 rather than failing (Fig 7a sweep).
	if _, err := NewGaussian(GaussianConfig{Dim: 2, Corr: 1, Rows: 10}); err != nil {
		t.Errorf("corr=1 should be clamped, got %v", err)
	}
}

func TestAppendGaussianDrift(t *testing.T) {
	ds, err := NewGaussian(GaussianConfig{Dim: 2, Corr: 0, Rows: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := AppendGaussian(ds, 200, 0.9, 4); err != nil {
		t.Fatal(err)
	}
	if ds.Table.Rows() != 1200 {
		t.Fatalf("Rows = %d, want 1200", ds.Table.Rows())
	}
	if got := ds.Table.ModifiedFraction(); math.Abs(got-200.0/1200) > 1e-12 {
		t.Errorf("ModifiedFraction = %g", got)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := NewGaussian(GaussianConfig{Dim: 2, Corr: 0.3, Rows: 100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGaussian(GaussianConfig{Dim: 2, Corr: 0.3, Rows: 100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 100; r++ {
		ra, rb := a.Table.Row(r), b.Table.Row(r)
		for c := range ra {
			if ra[c] != rb[c] {
				t.Fatalf("row %d differs: %v vs %v", r, ra, rb)
			}
		}
	}
	qa := GaussianQueries(a.Schema, 10, RandomShift, 7)
	qb := GaussianQueries(b.Schema, 10, RandomShift, 7)
	for i := range qa {
		if !qa[i].Box().Equal(qb[i].Box()) {
			t.Fatalf("query %d differs", i)
		}
	}
}

func TestNewDMV(t *testing.T) {
	ds, err := NewDMV(DMVConfig{Rows: 5000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Table.Rows() != 5000 {
		t.Fatalf("Rows = %d", ds.Table.Rows())
	}
	dom := ds.Schema.Domain()
	var regSum, expSum float64
	ds.Table.Scan(func(_ int, tup []float64) {
		if !dom.Contains(tup) {
			t.Fatalf("tuple %v escapes domain", tup)
		}
		regSum += tup[1]
		expSum += tup[2]
	})
	// Expirations follow registrations.
	if expSum <= regSum {
		t.Error("expiration dates should exceed registration dates on average")
	}
	// Model year correlates with registration date.
	if c := pearson(ds.Table.Column(0), ds.Table.Column(1)); c < 0.3 {
		t.Errorf("model_year/registration correlation = %g, want strong positive", c)
	}
}

func TestNewInstacart(t *testing.T) {
	ds, err := NewInstacart(InstacartConfig{Rows: 5000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Table.Rows() != 5000 {
		t.Fatalf("Rows = %d", ds.Table.Rows())
	}
	dom := ds.Schema.Domain()
	hist30 := 0
	ds.Table.Scan(func(_ int, tup []float64) {
		if !dom.Contains(tup) {
			t.Fatalf("tuple %v escapes domain", tup)
		}
		if tup[0] != math.Floor(tup[0]) || tup[1] != math.Floor(tup[1]) {
			t.Fatalf("integer columns must hold integral values, got %v", tup)
		}
		if tup[1] == 30 {
			hist30++
		}
	})
	// The 30-day cap spike must be visible (>10% of rows).
	if float64(hist30)/5000 < 0.10 {
		t.Errorf("days_since_prior=30 spike = %d/5000, want >= 10%%", hist30)
	}
}

func TestConfigRowErrors(t *testing.T) {
	if _, err := NewDMV(DMVConfig{Rows: -1}); err == nil {
		t.Error("expected error")
	}
	if _, err := NewInstacart(InstacartConfig{Rows: -1}); err == nil {
		t.Error("expected error")
	}
}

func TestQueriesAreSingleBoxInsideUnit(t *testing.T) {
	gds, _ := NewGaussian(GaussianConfig{Dim: 3, Corr: 0.2, Rows: 10, Seed: 8})
	dmv, _ := NewDMV(DMVConfig{Rows: 10, Seed: 8})
	ic, _ := NewInstacart(InstacartConfig{Rows: 10, Seed: 8})
	cases := []struct {
		name    string
		schema  *predicate.Schema
		queries []Query
	}{
		{"gaussian-random", gds.Schema, GaussianQueries(gds.Schema, 50, RandomShift, 1)},
		{"gaussian-sliding", gds.Schema, GaussianQueries(gds.Schema, 50, SlidingShift, 1)},
		{"gaussian-noshift", gds.Schema, GaussianQueries(gds.Schema, 50, NoShift, 1)},
		{"dmv", dmv.Schema, DMVQueries(dmv.Schema, 50, 1)},
		{"instacart", ic.Schema, InstacartQueries(ic.Schema, 50, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			unit := geom.Unit(tc.schema.Dim())
			for i, q := range tc.queries {
				b := q.Box() // panics if not single-box
				if !unit.ContainsBox(b) {
					t.Fatalf("query %d box %v escapes the unit cube", i, b)
				}
				if b.Volume() <= 0 {
					t.Fatalf("query %d has empty box", i)
				}
			}
		})
	}
}

func TestNoShiftRepeatsSameBox(t *testing.T) {
	ds, _ := NewGaussian(GaussianConfig{Dim: 2, Corr: 0, Rows: 10, Seed: 9})
	qs := GaussianQueries(ds.Schema, 20, NoShift, 3)
	for i := 1; i < len(qs); i++ {
		if !qs[i].Box().Equal(qs[0].Box()) {
			t.Fatalf("no-shift query %d differs from query 0", i)
		}
	}
}

func TestObserve(t *testing.T) {
	ds, err := NewGaussian(GaussianConfig{Dim: 2, Corr: 0, Rows: 1000, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	qs := GaussianQueries(ds.Schema, 5, RandomShift, 11)
	obs := Observe(ds, qs)
	if len(obs) != 5 {
		t.Fatalf("len = %d", len(obs))
	}
	for _, o := range obs {
		if o.Sel < 0 || o.Sel > 1 {
			t.Errorf("selectivity %g outside [0,1]", o.Sel)
		}
	}
}

func TestShiftKindString(t *testing.T) {
	if RandomShift.String() == "" || SlidingShift.String() == "" || NoShift.String() == "" {
		t.Error("ShiftKind strings must render")
	}
	if ShiftKind(99).String() == "" {
		t.Error("unknown ShiftKind should still render")
	}
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	return cov / math.Sqrt(vx*vy)
}

func TestDataCenteredQueries(t *testing.T) {
	ds, err := NewGaussian(GaussianConfig{Dim: 2, Corr: 0.9, Rows: 5000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	qs := DataCenteredQueries(ds, 100, 0.1, 0.3, 32)
	if len(qs) != 100 {
		t.Fatalf("len = %d", len(qs))
	}
	unit := geom.Unit(2)
	nonEmpty := 0
	for _, q := range qs {
		b := q.Box()
		if !unit.ContainsBox(b) {
			t.Fatalf("box %v escapes unit cube", b)
		}
		if ds.Table.SelectivityBoxes(q.Boxes) > 0 {
			nonEmpty++
		}
	}
	// Data-centered queries on highly-correlated data must mostly hit mass;
	// uniformly random rectangles would miss it about half the time.
	if nonEmpty < 80 {
		t.Errorf("only %d/100 data-centered queries hit data", nonEmpty)
	}
	// Determinism.
	qs2 := DataCenteredQueries(ds, 100, 0.1, 0.3, 32)
	for i := range qs {
		if !qs[i].Box().Equal(qs2[i].Box()) {
			t.Fatalf("query %d differs across identical seeds", i)
		}
	}
}

func TestDataCenteredQueriesEmptyTable(t *testing.T) {
	s := predicate.MustSchema(
		predicate.Column{Name: "x", Kind: predicate.Real, Min: 0, Max: 1},
	)
	ds := &Dataset{Name: "empty", Schema: s, Table: table.New(s)}
	qs := DataCenteredQueries(ds, 5, 0.1, 0.3, 33)
	if len(qs) != 5 {
		t.Fatalf("len = %d", len(qs))
	}
	for _, q := range qs {
		if q.Box().Volume() <= 0 {
			t.Error("fallback queries must have positive volume")
		}
	}
}

// DMVQueries mimics the paper's DMV workload: "the number of valid
// registrations for vehicles produced within a certain date range" —
// range predicates over the three attributes, biased toward the populated
// (recent) region of the domain so selectivities are non-trivial.
func DMVQueries(s *predicate.Schema, n int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	queries := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		centers := []float64{
			0.55 + 0.45*rng.Float64(), // recent model years
			rng.Float64(),
			rng.Float64(),
		}
		widths := []float64{
			0.05 + 0.35*rng.Float64(),
			0.10 + 0.50*rng.Float64(),
			0.10 + 0.50*rng.Float64(),
		}
		queries = append(queries, rangeQuery(s, centers, widths))
	}
	return queries
}

// InstacartQueries mimics the paper's workload: hour-of-day windows
// combined with ranges over days_since_prior.
func InstacartQueries(s *predicate.Schema, n int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	queries := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		centers := []float64{rng.Float64(), rng.Float64()}
		widths := []float64{
			0.08 + 0.30*rng.Float64(), // a few hours of the day
			0.10 + 0.50*rng.Float64(),
		}
		queries = append(queries, rangeQuery(s, centers, widths))
	}
	return queries
}
