package estimator

import (
	"math"
	"strings"
	"testing"

	"quicksel/internal/core"
	"quicksel/internal/geom"
)

func box(lo0, lo1, hi0, hi1 float64) geom.Box {
	return geom.Box{Lo: []float64{lo0, lo1}, Hi: []float64{hi0, hi1}}
}

// trainingStream is a deterministic 2-d feedback stream roughly consistent
// with mass concentrated in the lower-left quadrant.
var trainingStream = []struct {
	box geom.Box
	sel float64
}{
	{box(0, 0, 0.5, 0.5), 0.55},
	{box(0.5, 0.5, 1, 1), 0.05},
	{box(0, 0, 0.25, 1), 0.35},
	{box(0.25, 0, 1, 0.25), 0.30},
	{box(0.1, 0.1, 0.6, 0.6), 0.50},
	{box(0.7, 0, 1, 1), 0.10},
}

var probes = [][]geom.Box{
	{box(0, 0, 0.5, 0.5)},
	{box(0.5, 0, 1, 0.5)},
	{box(0.2, 0.2, 0.8, 0.8)},
	{box(0, 0, 0.3, 0.3), box(0.6, 0.6, 1, 1)}, // disjoint union
	{geom.Unit(2)},
}

func newTrained(t *testing.T, method string) Backend {
	t.Helper()
	b, err := New(Config{Method: method, Config: core.Config{Dim: 2, Seed: 7}})
	if err != nil {
		t.Fatalf("New(%s): %v", method, err)
	}
	for i, o := range trainingStream {
		if err := b.Observe(o.box, o.sel); err != nil {
			t.Fatalf("%s: Observe %d: %v", method, i, err)
		}
	}
	if err := b.Train(); err != nil {
		t.Fatalf("%s: Train: %v", method, err)
	}
	return b
}

func TestAllMethodsObserveTrainEstimate(t *testing.T) {
	for _, method := range Methods() {
		t.Run(method, func(t *testing.T) {
			b := newTrained(t, method)
			if got := b.Method(); got != method {
				t.Errorf("Method() = %q, want %q", got, method)
			}
			if got := b.Dim(); got != 2 {
				t.Errorf("Dim() = %d, want 2", got)
			}
			st := b.Stats()
			if st.Method != method {
				t.Errorf("Stats().Method = %q, want %q", st.Method, method)
			}
			if st.Observed != len(trainingStream) {
				t.Errorf("Stats().Observed = %d, want %d", st.Observed, len(trainingStream))
			}
			if st.Params <= 0 {
				t.Errorf("Stats().Params = %d, want > 0", st.Params)
			}
			for i, boxes := range probes {
				sel, err := b.Estimate(boxes)
				if err != nil {
					t.Fatalf("Estimate probe %d: %v", i, err)
				}
				if math.IsNaN(sel) || sel < 0 || sel > 1 {
					t.Errorf("probe %d: estimate %g outside [0, 1]", i, sel)
				}
			}
		})
	}
}

// TestSnapshotRoundTripBitIdentical is the property the serving daemon's
// restart path depends on: restore(snapshot(b)) estimates bit-identically to
// b for every method, and keeps learning identically afterwards (the
// background trainer clones via this path before every retrain).
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	for _, method := range Methods() {
		t.Run(method, func(t *testing.T) {
			b := newTrained(t, method)
			state, err := b.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			r, err := Restore(method, state)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if got, want := r.Stats(), b.Stats(); got != want {
				t.Errorf("restored Stats = %+v, want %+v", got, want)
			}
			compare := func(stage string, x, y Backend) {
				t.Helper()
				for i, boxes := range probes {
					want, err := x.Estimate(boxes)
					if err != nil {
						t.Fatal(err)
					}
					got, err := y.Estimate(boxes)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s: probe %d: estimates diverge: %g vs %g", stage, i, got, want)
					}
				}
			}
			compare("after restore", b, r)

			// Continue learning on two independent restores: the daemon's
			// background trainer always observes into a restored clone, so
			// this — not learning on the original, whose PRNG stream has
			// advanced past the snapshot for the quicksel method — is the
			// determinism the serving chain depends on.
			r2, err := Restore(method, state)
			if err != nil {
				t.Fatal(err)
			}
			extra := box(0.3, 0.3, 0.9, 0.9)
			for _, bk := range []Backend{r, r2} {
				if err := bk.Observe(extra, 0.2); err != nil {
					t.Fatal(err)
				}
				if err := bk.Train(); err != nil {
					t.Fatal(err)
				}
			}
			compare("after restore+learn", r, r2)
		})
	}
}

func TestUnknownMethod(t *testing.T) {
	_, err := New(Config{Method: "histogrm", Config: core.Config{Dim: 2}})
	if err == nil {
		t.Fatal("New accepted unknown method")
	}
	var ume *UnknownMethodError
	if !errAs(err, &ume) {
		t.Fatalf("error %T is not *UnknownMethodError", err)
	}
	for _, m := range Methods() {
		if !strings.Contains(err.Error(), m) {
			t.Errorf("error %q does not list valid method %q", err, m)
		}
	}
	if _, err := Restore("histogrm", []byte("{}")); err == nil {
		t.Error("Restore accepted unknown method")
	}
}

// errAs avoids importing errors just for one assertion.
func errAs(err error, target **UnknownMethodError) bool {
	u, ok := err.(*UnknownMethodError)
	if ok {
		*target = u
	}
	return ok
}

func TestDefaultMethodIsQuickSel(t *testing.T) {
	b, err := New(Config{Config: core.Config{Dim: 2, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Method() != QuickSel {
		t.Errorf("default method = %q, want %q", b.Method(), QuickSel)
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	for _, method := range Methods() {
		if _, err := Restore(method, nil); err == nil {
			t.Errorf("%s: Restore accepted empty state", method)
		}
		if _, err := Restore(method, []byte(`{"dim": -1`)); err == nil {
			t.Errorf("%s: Restore accepted truncated JSON", method)
		}
	}
	// A scan snapshot with an out-of-range event selectivity must be
	// rejected rather than replayed.
	bad := []byte(`{"config": {"dim": 2, "rows_per_observation": 8}, "events": [{"lo": [0,0], "hi": [1,1], "sel": 7}]}`)
	if _, err := Restore(Sample, bad); err == nil {
		t.Error("Restore(sample) accepted out-of-range event selectivity")
	}
}

// TestScanBackendCompaction pushes a scan backend far past its event-log
// bound and checks the invariants compaction must keep: the log and
// synthetic table stay bounded, the total-observed counter does not, and
// snapshot round-trips remain bit-identical mid-stream.
func TestScanBackendCompaction(t *testing.T) {
	for _, method := range []string{Sample, ScanHist} {
		t.Run(method, func(t *testing.T) {
			b, err := New(Config{Method: method, Config: core.Config{Dim: 2, Seed: 11}, RowsPerObservation: 2, SampleSize: 64, GridBuckets: 64})
			if err != nil {
				t.Fatal(err)
			}
			sb := b.(*scanBackend)
			n := maxScanEvents + maxScanEvents/2 + 17
			for i := 0; i < n; i++ {
				o := trainingStream[i%len(trainingStream)]
				if err := b.Observe(o.box, o.sel); err != nil {
					t.Fatal(err)
				}
			}
			if sb.generation == 0 {
				t.Error("no compaction happened past the log bound")
			}
			if len(sb.events) > maxScanEvents {
				t.Errorf("event log has %d entries, bound is %d", len(sb.events), maxScanEvents)
			}
			if rows := sb.tbl.Rows(); rows > maxScanEvents*sb.cfg.RowsPerObservation {
				t.Errorf("synthetic table has %d rows, want bounded", rows)
			}
			if got := b.Stats().Observed; got != n {
				t.Errorf("Stats().Observed = %d, want %d (must survive compaction)", got, n)
			}

			state, err := b.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			r, err := Restore(method, state)
			if err != nil {
				t.Fatal(err)
			}
			// Restored and original must agree now AND keep agreeing as the
			// stream continues (same stream positions, same future
			// compaction points).
			for step := 0; step < 3; step++ {
				for i, boxes := range probes {
					want, _ := b.Estimate(boxes)
					got, _ := r.Estimate(boxes)
					if got != want {
						t.Fatalf("step %d probe %d: restored %g, original %g", step, i, got, want)
					}
				}
				o := trainingStream[step%len(trainingStream)]
				for _, bk := range []Backend{b, r} {
					if err := bk.Observe(o.box, o.sel); err != nil {
						t.Fatal(err)
					}
					if err := bk.Train(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

func TestObserveValidation(t *testing.T) {
	for _, method := range Methods() {
		b, err := New(Config{Method: method, Config: core.Config{Dim: 2, Seed: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Observe(geom.Box{Lo: []float64{0}, Hi: []float64{1}}, 0.5); err == nil {
			t.Errorf("%s: Observe accepted wrong-dimension box", method)
		}
		if err := b.Observe(box(0, 0, 1, 1), math.NaN()); err == nil {
			t.Errorf("%s: Observe accepted NaN selectivity", method)
		}
	}
}
