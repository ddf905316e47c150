package quicksel_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
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

// atLeastTwoProcs raises GOMAXPROCS to 2 for the test when it is lower, so
// batches split over goroutines even on a one-CPU runner.
func atLeastTwoProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// batchWheres returns the snapshot probes followed by generated ranges, 64
// clauses in all: long enough that EstimateBatch splits them over
// goroutines.
func batchWheres() []string {
	wheres := append([]string(nil), snapshotProbes...)
	for i := len(wheres); i < 64; i++ {
		lo := 18 + i%60
		wheres = append(wheres, fmt.Sprintf("age BETWEEN %d AND %d AND salary < %d", lo, lo+10, 20000*(1+i%14)))
	}
	return wheres
}

func parseAll(t *testing.T, schema *quicksel.Schema, wheres []string) []*quicksel.Predicate {
	t.Helper()
	preds := make([]*quicksel.Predicate, len(wheres))
	for i, where := range wheres {
		p, err := quicksel.Parse(schema, where)
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = p
	}
	return preds
}

// estimateEach is the serial control: one Estimate per predicate.
func estimateEach(t *testing.T, est *quicksel.Estimator, preds []*quicksel.Predicate) []float64 {
	t.Helper()
	out := make([]float64, len(preds))
	for i, p := range preds {
		sel, err := est.Estimate(p)
		if err != nil {
			t.Fatalf("Estimate(%v): %v", p, err)
		}
		out[i] = sel
	}
	return out
}

// sameBits reports through t the first clause whose batch answer differs
// in bits from its single estimate, and whether every answer matched. It
// may run on any goroutine.
func sameBits(t *testing.T, wheres []string, got, want []float64) bool {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("batch of %d answers, want %d", len(got), len(want))
		return false
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("clause %d (%q): batch %v, single %v", i, wheres[i], got[i], want[i])
			return false
		}
	}
	return true
}

// Four goroutines batch-estimate 64 clauses at a time on one trained
// estimator of every method, each batch split over goroutines in turn, and
// every answer matches the clause's single Estimate bit for bit. Run under
// -race.
func TestAllMethodsConcurrentEstimateBatch(t *testing.T) {
	atLeastTwoProcs(t)
	wheres := batchWheres()
	for _, method := range quicksel.Methods() {
		t.Run(method, func(t *testing.T) {
			est := trainedMethodEstimator(t, method)
			preds := parseAll(t, est.Schema(), wheres)
			want := estimateEach(t, est, preds)
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
						if !sameBits(t, wheres, got, want) {
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// Four readers, two batch-estimating 64 clauses at a time and two
// estimating one clause at a time, run against a writer that observes,
// trains and snapshots the same estimator of every method, starting from a
// model never fitted. No call fails, every answer lies in [0, 1], and once
// the writer stops a batch equals the clauses' single estimates bit for
// bit. Run under -race -count=10.
func TestAllMethodsReadersDuringWrites(t *testing.T) {
	atLeastTwoProcs(t)
	wheres := batchWheres()
	for _, method := range quicksel.Methods() {
		t.Run(method, func(t *testing.T) {
			est, err := quicksel.New(testSchema(t), quicksel.WithSeed(7), quicksel.WithMethod(method))
			if err != nil {
				t.Fatal(err)
			}
			preds := parseAll(t, est.Schema(), wheres)
			stop := make(chan struct{})
			var started, readers sync.WaitGroup
			started.Add(4)
			readers.Add(4)
			for r := 0; r < 4; r++ {
				go func() {
					defer readers.Done()
					for n := 0; ; n++ {
						var sels []float64
						var err error
						if r%2 == 0 {
							sels, err = est.EstimateBatch(preds)
						} else {
							var sel float64
							sel, err = est.Estimate(preds[n%len(preds)])
							sels = []float64{sel}
						}
						if n == 0 {
							started.Done()
						}
						if err != nil {
							t.Errorf("reader %d: %v", r, err)
							return
						}
						for _, sel := range sels {
							if !(sel >= 0 && sel <= 1) {
								t.Errorf("reader %d: estimate %v outside [0, 1]", r, sel)
								return
							}
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
			}
			halt := sync.OnceFunc(func() {
				close(stop)
				readers.Wait()
			})
			defer halt()
			// Every reader's first call ran against the never-fitted model.
			started.Wait()
			for i := 0; i < 12; i++ {
				lo := 18 + 5*i
				where := fmt.Sprintf("age BETWEEN %d AND %d OR salary >= %d", lo, lo+12, 250000-15000*i)
				if err := est.ObserveWhere(where, 0.05+0.05*float64(i%6)); err != nil {
					t.Fatal(err)
				}
				if i%2 == 1 {
					if err := est.Train(); err != nil {
						t.Fatal(err)
					}
				}
				if s := est.Snapshot(); s.Method != method {
					t.Fatalf("snapshot method %q, want %q", s.Method, method)
				}
			}
			halt()
			want := estimateEach(t, est, preds)
			got, err := est.EstimateBatch(preds)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, wheres, got, want)
		})
	}
}

// A batch with bad clauses at indices 17 and 45, which a split batch hands
// to different goroutines, reports index 17 with the text a clause-by-clause
// pass gives.
func TestAllMethodsBatchErrorNamesLowestIndex(t *testing.T) {
	atLeastTwoProcs(t)
	for _, method := range quicksel.Methods() {
		t.Run(method, func(t *testing.T) {
			est := trainedMethodEstimator(t, method)
			wheres := batchWheres()
			wheres[17], wheres[45] = "age >>= 3", "nope"
			_, err := est.EstimateBatchWhere(wheres)
			if want := `quicksel: estimate 17: predicate: parse error at offset 5: expected number, got ">="`; err == nil || err.Error() != want {
				t.Errorf("EstimateBatchWhere error %v, want %s", err, want)
			}
			preds := parseAll(t, est.Schema(), batchWheres())
			preds[17], preds[45] = quicksel.Range(1, math.NaN(), 5), quicksel.AtMost(2, math.NaN())
			_, err = est.EstimateBatch(preds)
			if want := "quicksel: estimate 17: predicate: NaN bound on column 1"; err == nil || err.Error() != want {
				t.Errorf("EstimateBatch error %v, want %s", err, want)
			}
		})
	}
}

// A lazy fit that fails is paid by the batch's first clause, so the batch
// names index 0, as a clause-by-clause pass does.
func TestEstimateBatchFailedFitNamesClauseZero(t *testing.T) {
	atLeastTwoProcs(t)
	// A penalty this large overflows λAᵀA, so the analytic solve finds no
	// positive definite factor.
	est, err := quicksel.New(testSchema(t), quicksel.WithSeed(7), quicksel.WithLambda(math.MaxFloat64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := est.ObserveWhere("age >= 18", 0.5); err != nil {
			t.Fatal(err)
		}
	}
	_, err = est.EstimateBatch(parseAll(t, est.Schema(), batchWheres()))
	if want := "quicksel: estimate 0: core: analytic training: qp: analytic solve: linalg: matrix is not positive definite"; err == nil || err.Error() != want {
		t.Errorf("EstimateBatch error %v, want %s", err, want)
	}
}

// A nil predicate, at the top or nested, is an error from Observe, Estimate
// and EstimateBatch on every method, not a panic, also after a conjunct
// that selects nothing; in the batch it sits at an index a split batch
// hands to another goroutine.
func TestAllMethodsRejectNilPredicate(t *testing.T) {
	atLeastTwoProcs(t)
	afterEmpty := quicksel.And(quicksel.Range(0, 5, 3), nil)
	nils := map[string]*quicksel.Predicate{
		"top":             nil,
		"and":             quicksel.And(quicksel.Range(0, 20, 40), nil),
		"or":              quicksel.Or(quicksel.Range(0, 20, 40), nil),
		"not":             quicksel.Not(nil),
		"and after empty": afterEmpty,
		"or after empty":  quicksel.Or(afterEmpty, quicksel.Range(0, 20, 40)),
		"not after empty": quicksel.Not(afterEmpty),
	}
	for _, method := range quicksel.Methods() {
		t.Run(method, func(t *testing.T) {
			est := trainedMethodEstimator(t, method)
			batch := parseAll(t, est.Schema(), batchWheres())
			for name, p := range nils {
				if err := est.Observe(p, 0.5); err == nil {
					t.Errorf("%s: Observe succeeded, want an error", name)
				}
				if got, err := est.Estimate(p); err == nil {
					t.Errorf("%s: Estimate = %v, want an error", name, got)
				}
				batch[40] = p
				if _, err := est.EstimateBatch(batch); err == nil || !strings.Contains(err.Error(), "estimate 40: predicate: nil predicate") {
					t.Errorf("%s: EstimateBatch error %v, want one naming index 40", name, err)
				}
			}
		})
	}
}

// A NaN bound is an error for every method, fresh (never trained) or
// trained, from Observe, Estimate and EstimateBatch alike, also after a
// conjunct that selects nothing: compares would read it as an open bound
// and arithmetic would carry it into a NaN estimate.
func TestAllMethodsRejectNaNBounds(t *testing.T) {
	afterEmpty := quicksel.And(quicksel.Range(0, 5, 3), quicksel.Range(0, math.NaN(), 1))
	nan := []*quicksel.Predicate{
		quicksel.Range(0, math.NaN(), 30),
		quicksel.AtMost(1, math.NaN()),
		afterEmpty,
		quicksel.Or(afterEmpty, quicksel.Range(0, 20, 40)),
		quicksel.Not(afterEmpty),
	}
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
