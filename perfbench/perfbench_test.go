package main

import (
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// buildDaemons builds quickseld and quickselrouter from the module under
// test into a temporary directory.
func buildDaemons(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "quicksel/cmd/quickseld", "quicksel/cmd/quickselrouter")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

func values(rep *report, names ...string) map[string]float64 {
	out := map[string]float64{}
	for _, m := range rep.metrics {
		for _, n := range names {
			if m.name == n {
				out[n] = m.value
			}
		}
	}
	return out
}

// TestSameSeedSameResults runs ingest-mixed — the workload whose model
// changes while it is read — twice with one seed, untraced and traced. The
// q-errors, the failure rate, the log bytes per observation and the train
// counts by mode must repeat exactly: the model changes only at the
// benchmark's explicit train points.
func TestSameSeedSameResults(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	w, err := workloadByName("ingest-mixed")
	if err != nil {
		t.Fatal(err)
	}
	o := options{workload: w.name, seed: 7, seconds: 2, bin: buildDaemons(t), work: t.TempDir()}
	run := func(traced bool) *report {
		t.Helper()
		in, err := w.gen(o.seed, w.slice(o.seconds))
		if err != nil {
			t.Fatal(err)
		}
		var rep *report
		if traced {
			rep, err = runTraced(w, in, o)
		} else {
			rep, err = runE2E(w, in, o)
		}
		if err != nil {
			t.Fatal(err)
		}
		if n, f := rep.t.attempted.Load(), rep.t.failed.Load(); n == 0 || f != 0 {
			t.Fatalf("failed_frac: %d of %d operations failed, want 0: %v", f, n, rep.t.first)
		}
		return rep
	}
	for _, c := range []struct {
		traced bool
		names  []string
	}{
		{false, []string{"qerror_p50", "qerror_p95"}},
		{true, []string{"wal.bytes_per_obs", "registry.train_full", "registry.train_incremental"}},
	} {
		a, b := values(run(c.traced), c.names...), values(run(c.traced), c.names...)
		if len(a) != len(c.names) || !reflect.DeepEqual(a, b) {
			t.Errorf("traced=%v: one seed gave %v, then %v", c.traced, a, b)
		}
	}
}

// TestSeedChangesInputs checks that every workload's traffic is a function
// of the seed: the same seed repeats it, another seed changes it.
func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads {
		a, errA := w.gen(1, 2*time.Second)
		again, errB := w.gen(1, 2*time.Second)
		other, errC := w.gen(2, 2*time.Second)
		if errA != nil || errB != nil || errC != nil {
			t.Fatal(errA, errB, errC)
		}
		if !reflect.DeepEqual(a, again) {
			t.Errorf("%s: one seed generated different inputs", w.name)
		}
		if reflect.DeepEqual(a.Reads, other.Reads) {
			t.Errorf("%s: seeds 1 and 2 generated the same reads", w.name)
		}
	}
}

// TestTrimmedMean checks that one outlying set-up cannot move a run's
// value: the smallest and largest values are dropped before averaging.
func TestTrimmedMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{2, 4}, 3},
		{[]float64{9, 1, 5}, 5},
		{[]float64{100, 2, 4, 1, 6}, 4},
	} {
		if got := trimmedMean(append([]float64(nil), c.xs...)); got != c.want {
			t.Errorf("trimmedMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
