package obs

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// Every duration must land in a bucket whose (lower, upper] bound range
// contains it, across the whole log-linear layout.
func TestBucketIndexBoundsConsistent(t *testing.T) {
	bounds := BucketBounds()
	if !math.IsInf(bounds[len(bounds)-1], 1) {
		t.Fatalf("last bound = %v, want +Inf", bounds[len(bounds)-1])
	}
	for i := 1; i < len(bounds)-1; i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v then %v", i, bounds[i-1], bounds[i])
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100000; trial++ {
		// Log-uniform durations from 1ns to ~100s, plus the overflow range.
		d := time.Duration(math.Exp(rng.Float64() * math.Log(100e9)))
		i := bucketIndex(d)
		sec := d.Seconds()
		if sec > bounds[i] {
			t.Fatalf("d=%v (%.9gs) above its bucket %d bound %.9g", d, sec, i, bounds[i])
		}
		if i > 0 && sec <= bounds[i-1] {
			t.Fatalf("d=%v (%.9gs) at or below bucket %d's lower bound %.9g", d, sec, i, bounds[i-1])
		}
	}
	if got := bucketIndex(-time.Second); got != 0 {
		t.Fatalf("negative duration bucket = %d, want 0", got)
	}
	if got := bucketIndex(10 * time.Minute); got != NumBuckets-1 {
		t.Fatalf("overflow duration bucket = %d, want %d", got, NumBuckets-1)
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Total != 1000 {
		t.Fatalf("count = %d, want 1000", s.Total)
	}
	// Uniform 1..1000µs: the quantile estimate must be within one bucket's
	// relative width (≤25% past the linear prefix) of the true quantile.
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Microsecond}, {0.95, 950 * time.Microsecond}, {0.99, 990 * time.Microsecond}} {
		got := s.Quantile(tc.q)
		if ratio := float64(got) / float64(tc.want); ratio < 0.75 || ratio > 1.25 {
			t.Errorf("q%g = %v, want within 25%% of %v", tc.q*100, got, tc.want)
		}
	}
	wantMean := 500500 * time.Nanosecond
	if got := s.Mean(); got != wantMean {
		t.Errorf("mean = %v, want %v", got, wantMean)
	}
	if got := s.Quantile(math.NaN()); got != 0 {
		t.Errorf("NaN quantile = %v, want 0", got)
	}
	var empty HistSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Observe(time.Millisecond)
		b.Observe(time.Second)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Total != 200 {
		t.Fatalf("merged count = %d, want 200", sa.Total)
	}
	if want := 100*time.Millisecond + 100*time.Second; sa.Sum != want {
		t.Fatalf("merged sum = %v, want %v", sa.Sum, want)
	}
	if q := sa.Quantile(0.9); q < 500*time.Millisecond {
		t.Fatalf("merged p90 = %v, want in the seconds range", q)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if s := h.Snapshot(); s.Total != 0 {
		t.Fatalf("nil snapshot count = %d", s.Total)
	}
}

// The histogram is recorded from every request goroutine concurrently; no
// record may be lost (run under -race).
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*per+i) * time.Nanosecond)
			}
		}(g)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Total != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Total, goroutines*per)
	}
}

// The histogram's own exposition must pass the package's own conformance
// validator — the property the server metrics test then checks end to end.
func TestHistogramWritePrometheusConformant(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i) * 37 * time.Microsecond)
	}
	h.Observe(5 * time.Minute) // overflow bucket
	var b strings.Builder
	b.WriteString("# HELP test_duration_seconds Test histogram.\n# TYPE test_duration_seconds histogram\n")
	h.Snapshot().WritePrometheus(&b, "test_duration_seconds", `estimator="e",method="quick\"sel"`)
	h.Snapshot().WritePrometheus(&b, "test_duration_seconds", "")
	if err := ValidateExposition(strings.NewReader(b.String())); err != nil {
		t.Fatalf("own exposition rejected:\n%v\npayload head:\n%s", err, b.String()[:400])
	}
	if !strings.Contains(b.String(), `le="+Inf"`) {
		t.Fatal("exposition missing +Inf bucket")
	}
}

// BenchmarkHistogramObserve is the per-record instrumentation cost added
// to the observe/estimate hot paths: it must stay in the tens of
// nanoseconds for the single-digit-percent overhead budget to hold.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

// BucketBounds returns the inclusive upper bound of every bucket in
// seconds; the last entry is +Inf. The slice is shared — do not mutate.
func BucketBounds() []float64 { return bucketBounds[:] }
