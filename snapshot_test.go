package quicksel_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"quicksel"
)

func testSchema(t testing.TB) *quicksel.Schema {
	t.Helper()
	schema, err := quicksel.NewSchema(
		quicksel.Column{Name: "age", Kind: quicksel.Integer, Min: 18, Max: 90},
		quicksel.Column{Name: "salary", Kind: quicksel.Real, Min: 0, Max: 300_000},
		quicksel.Column{Name: "state", Kind: quicksel.Categorical, Min: 0, Max: 49},
	)
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

func trainedEstimator(t testing.TB, opts ...quicksel.Option) *quicksel.Estimator {
	t.Helper()
	est, err := quicksel.New(testSchema(t), append([]quicksel.Option{quicksel.WithSeed(7)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	obs := []struct {
		where string
		sel   float64
	}{
		{"age BETWEEN 18 AND 29", 0.22},
		{"age BETWEEN 30 AND 49 AND salary >= 100000", 0.12},
		{"salary < 40000", 0.35},
		{"state IN (3, 7) OR salary >= 150000", 0.14},
		{"NOT (age >= 65)", 0.81},
	}
	for _, o := range obs {
		if err := est.ObserveWhere(o.where, o.sel); err != nil {
			t.Fatal(err)
		}
	}
	if err := est.Train(); err != nil {
		t.Fatal(err)
	}
	return est
}

var snapshotProbes = []string{
	"age >= 50",
	"age BETWEEN 25 AND 44",
	"salary < 40000 OR salary >= 150000",
	"state = 7",
	"age < 30 AND salary >= 100000 AND state IN (1, 2, 3)",
}

// TestSnapshotRoundTrip checks that a snapshot restored through the JSON
// encoding produces bit-identical estimates without retraining.
func TestSnapshotRoundTrip(t *testing.T) {
	est := trainedEstimator(t)

	var buf bytes.Buffer
	if err := est.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := quicksel.DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := restored.NumObserved(), est.NumObserved(); got != want {
		t.Fatalf("restored NumObserved = %d, want %d", got, want)
	}
	if got, want := restored.ParamCount(), est.ParamCount(); got != want {
		t.Fatalf("restored ParamCount = %d, want %d", got, want)
	}
	for _, where := range snapshotProbes {
		want, err := est.EstimateWhere(where)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.EstimateWhere(where)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("EstimateWhere(%q) = %v after restore, want %v", where, got, want)
		}
	}
}

// TestSnapshotRestoreThenLearn checks a restored estimator keeps learning:
// new observations and retraining work on the restored state.
func TestSnapshotRestoreThenLearn(t *testing.T) {
	est := trainedEstimator(t)
	restored, err := quicksel.Restore(est.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ObserveWhere("age >= 70", 0.08); err != nil {
		t.Fatal(err)
	}
	if err := restored.Train(); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.NumObserved(), est.NumObserved()+1; got != want {
		t.Fatalf("NumObserved = %d, want %d", got, want)
	}
	sel, err := restored.EstimateWhere("age >= 70")
	if err != nil {
		t.Fatal(err)
	}
	if sel < 0 || sel > 1 {
		t.Fatalf("estimate %v out of [0, 1]", sel)
	}
}

// TestSnapshotRejectsCorrupt checks Restore validates its input.
func TestSnapshotRejectsCorrupt(t *testing.T) {
	est := trainedEstimator(t)

	if _, err := quicksel.Restore(nil); err == nil {
		t.Error("Restore(nil) succeeded")
	}

	s := est.Snapshot()
	s.Version = 99
	if _, err := quicksel.Restore(s); err == nil {
		t.Error("Restore accepted bad version")
	}

	s = est.Snapshot()
	s.Schema = nil
	if _, err := quicksel.Restore(s); err == nil {
		t.Error("Restore accepted nil schema")
	}

	s = est.Snapshot()
	s.Model.Weights = s.Model.Weights[:1]
	if _, err := quicksel.Restore(s); err == nil {
		t.Error("Restore accepted mismatched weights")
	}

	s = est.Snapshot()
	s.Model.Observations[0].Lo = []float64{0.5}
	if _, err := quicksel.Restore(s); err == nil {
		t.Error("Restore accepted wrong-dimension observation")
	}

	s = est.Snapshot()
	s.Model.Subpops[0].Hi[0] = 1.5
	if _, err := quicksel.Restore(s); err == nil {
		t.Error("Restore accepted a subpopulation outside the unit cube")
	}
}

// TestEstimatorConcurrentHammer drives one Estimator from many goroutines
// mixing Observe, Estimate, Train, and Snapshot. Run under -race; the test
// asserts only sanity (no errors, estimates in range) — the point is the
// interleaving.
func TestEstimatorConcurrentHammer(t *testing.T) {
	est, err := quicksel.New(testSchema(t), quicksel.WithSeed(1), quicksel.WithMaxSubpopulations(64))
	if err != nil {
		t.Fatal(err)
	}
	const (
		goroutines = 8
		iterations = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iterations)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				switch (g + i) % 4 {
				case 0:
					lo := 18 + (7*g+i)%40
					where := fmt.Sprintf("age BETWEEN %d AND %d", lo, lo+10)
					if err := est.ObserveWhere(where, float64(i%10)/10); err != nil {
						errs <- err
						return
					}
				case 1:
					sel, err := est.EstimateWhere("salary >= 100000")
					if err != nil {
						errs <- err
						return
					}
					if sel < 0 || sel > 1 {
						errs <- fmt.Errorf("estimate %v out of range", sel)
						return
					}
				case 2:
					if err := est.Train(); err != nil {
						errs <- err
						return
					}
				default:
					if _, err := quicksel.Restore(est.Snapshot()); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
