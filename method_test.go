package quicksel_test

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"quicksel"
)

// trainedMethodEstimator builds a trained estimator of the given method over
// the shared test schema and feedback stream.
func trainedMethodEstimator(t *testing.T, method string) *quicksel.Estimator {
	t.Helper()
	est, err := quicksel.New(testSchema(t), quicksel.WithSeed(7), quicksel.WithMethod(method))
	if err != nil {
		t.Fatalf("New(%s): %v", method, err)
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
			t.Fatalf("%s: ObserveWhere(%q): %v", method, o.where, err)
		}
	}
	if err := est.Train(); err != nil {
		t.Fatalf("%s: Train: %v", method, err)
	}
	return est
}

// TestAllMethodsServeEstimates drives the full public workflow — observe,
// train, estimate, batch estimate — through every estimation method.
func TestAllMethodsServeEstimates(t *testing.T) {
	for _, method := range quicksel.Methods() {
		t.Run(method, func(t *testing.T) {
			est := trainedMethodEstimator(t, method)
			if got := est.Method(); got != method {
				t.Errorf("Method() = %q, want %q", got, method)
			}
			if est.NumObserved() == 0 {
				t.Error("NumObserved() = 0 after observing")
			}
			if est.ParamCount() <= 0 {
				t.Errorf("ParamCount() = %d, want > 0", est.ParamCount())
			}
			sels, err := est.EstimateBatchWhere(snapshotProbes)
			if err != nil {
				t.Fatal(err)
			}
			for i, sel := range sels {
				if sel < 0 || sel > 1 {
					t.Errorf("probe %d (%q): estimate %g outside [0, 1]", i, snapshotProbes[i], sel)
				}
			}
		})
	}
}

// Four goroutines batch-estimate on one trained estimator of every method,
// and every answer matches a serial control bit for bit. Run under -race.
func TestAllMethodsConcurrentEstimateBatch(t *testing.T) {
	for _, method := range quicksel.Methods() {
		t.Run(method, func(t *testing.T) {
			est := trainedMethodEstimator(t, method)
			preds := make([]*quicksel.Predicate, len(snapshotProbes))
			for i, where := range snapshotProbes {
				p, err := quicksel.Parse(est.Schema(), where)
				if err != nil {
					t.Fatal(err)
				}
				preds[i] = p
			}
			want, err := est.EstimateBatch(preds)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for iter := 0; iter < 25; iter++ {
						got, err := est.EstimateBatch(preds)
						if err != nil {
							t.Error(err)
							return
						}
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Errorf("probe %d (%q): concurrent %v, serial %v", i, snapshotProbes[i], got[i], want[i])
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// A NaN bound is an error for every method, fresh (never trained) or
// trained, from Observe, Estimate and EstimateBatch alike: compares would
// read it as an open bound and arithmetic would carry it into a NaN
// estimate.
func TestAllMethodsRejectNaNBounds(t *testing.T) {
	nan := []*quicksel.Predicate{quicksel.Range(0, math.NaN(), 30), quicksel.AtMost(1, math.NaN())}
	for _, method := range quicksel.Methods() {
		t.Run(method, func(t *testing.T) {
			fresh, err := quicksel.New(testSchema(t), quicksel.WithMethod(method))
			if err != nil {
				t.Fatal(err)
			}
			ests := map[string]*quicksel.Estimator{"fresh": fresh, "trained": trainedMethodEstimator(t, method)}
			for name, est := range ests {
				for i, p := range nan {
					if got, err := est.Estimate(p); err == nil {
						t.Errorf("%s: Estimate of NaN predicate %d = %v, want an error", name, i, got)
					}
					if got, err := est.EstimateBatch([]*quicksel.Predicate{quicksel.Range(0, 20, 40), p}); err == nil {
						t.Errorf("%s: EstimateBatch with NaN predicate %d = %v, want an error", name, i, got)
					}
					if err := est.Observe(p, 0.5); err == nil {
						t.Errorf("%s: Observe of NaN predicate %d succeeded, want an error", name, i)
					}
				}
			}
		})
	}
}

// TestAllMethodsSnapshotRoundTrip checks the version-2 envelope: every
// method's snapshot records the method, survives the JSON encoding, and
// restores to bit-identical estimates.
func TestAllMethodsSnapshotRoundTrip(t *testing.T) {
	for _, method := range quicksel.Methods() {
		t.Run(method, func(t *testing.T) {
			est := trainedMethodEstimator(t, method)

			s := est.Snapshot()
			if s.Version != quicksel.SnapshotVersion {
				t.Errorf("snapshot version = %d, want %d", s.Version, quicksel.SnapshotVersion)
			}
			if s.Method != method {
				t.Errorf("snapshot method = %q, want %q", s.Method, method)
			}
			if method == quicksel.MethodQuickSel {
				if s.Model == nil || s.State != nil {
					t.Error("quicksel snapshot should use the typed Model field")
				}
			} else if s.Model != nil || len(s.State) == 0 {
				t.Errorf("%s snapshot should use the State field", method)
			}

			var buf bytes.Buffer
			if err := est.EncodeSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := quicksel.DecodeSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got := restored.Method(); got != method {
				t.Errorf("restored Method() = %q, want %q", got, method)
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
		})
	}
}

// TestVersion1SnapshotStillRestores keeps the pre-method snapshot format
// loadable: a version-1 envelope (no method, typed Model state) must restore
// as a QuickSel estimator.
func TestVersion1SnapshotStillRestores(t *testing.T) {
	est := trainedEstimator(t)
	s := est.Snapshot()
	s.Version = 1
	s.Method = ""
	restored, err := quicksel.Restore(s)
	if err != nil {
		t.Fatalf("Restore(version 1): %v", err)
	}
	if restored.Method() != quicksel.MethodQuickSel {
		t.Errorf("restored method = %q, want quicksel", restored.Method())
	}
	want, _ := est.EstimateWhere(snapshotProbes[0])
	got, err := restored.EstimateWhere(snapshotProbes[0])
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("v1-restored estimate = %v, want %v", got, want)
	}
}

// TestUnknownMethodLists checks the construction error names every valid
// method, so HTTP clients of the daemon can self-correct from the 400 body.
func TestUnknownMethodLists(t *testing.T) {
	_, err := quicksel.New(testSchema(t), quicksel.WithMethod("histogrm"))
	if err == nil {
		t.Fatal("New accepted unknown method")
	}
	for _, m := range quicksel.Methods() {
		if !strings.Contains(err.Error(), m) {
			t.Errorf("error %q does not list method %q", err, m)
		}
	}
}
