// Package obs is quicksel's dependency-free telemetry layer: lock-free
// log-linear latency histograms, structured-logging setup on log/slog,
// request/stage tracing with a fixed-size completed-trace ring, and a
// Prometheus text-exposition conformance validator. The serving registry,
// HTTP layer, write-ahead log, and benchmarks all record through this
// package; nothing here imports anything outside the standard library, so
// any layer of the repository can depend on it without cycles.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// The histogram is log-linear (HDR-style): durations are measured in ticks
// of 2^tickShift nanoseconds; the first 2·subCount buckets are linear (one
// tick wide), after which every power-of-two octave is split into subCount
// linearly spaced sub-buckets. Bucket boundaries are exact in ticks, the
// index is pure integer arithmetic (no search, no floating point), and the
// relative width of any bucket past the linear prefix is at most
// 1/subCount — so a quantile read off a bucket boundary is within ~25% of
// the true value before interpolation even starts.
const (
	tickShift = 7 // 128ns ticks: the linear prefix resolves sub-µs latencies
	subBits   = 2 // 4 sub-buckets per octave
	subCount  = 1 << subBits
	firstLin  = 2 * subCount // linear one-tick buckets for t < firstLin
	minExp    = subBits + 1  // first octave handled by the log-linear rule
	maxExp    = 28           // last octave: tops out at 2^29 ticks ≈ 69s
	numOct    = maxExp - minExp + 1

	// NumBuckets is the fixed bucket count of every Histogram: the linear
	// prefix, the log-linear octaves, and one overflow (+Inf) bucket.
	NumBuckets = firstLin + numOct*subCount + 1
)

// bucketBounds[i] is the inclusive upper bound of bucket i in seconds
// (Prometheus le semantics); the overflow bucket has bound +Inf.
var bucketBounds = func() [NumBuckets]float64 {
	var b [NumBuckets]float64
	for i := 0; i < NumBuckets-1; i++ {
		var upperTicks uint64
		if i < firstLin {
			upperTicks = uint64(i + 1)
		} else {
			k := i - firstLin
			e := minExp + k/subCount
			s := k % subCount
			upperTicks = uint64(subCount+s+1) << (e - subBits)
		}
		b[i] = float64(upperTicks*(1<<tickShift)) / 1e9
	}
	b[NumBuckets-1] = math.Inf(1)
	return b
}()

// bucketIndex maps a duration to the bucket whose (lower, upper] range
// contains it. Bounds are exact tick multiples, so d-1 before the shift
// makes exact-boundary durations land in the lower bucket, matching the
// inclusive le semantics of the exported bounds.
func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	t := uint64(d-1) >> tickShift
	if t < firstLin {
		return int(t)
	}
	e := bits.Len64(t) - 1
	if e > maxExp {
		return NumBuckets - 1
	}
	s := int(t>>uint(e-subBits)) - subCount
	return firstLin + (e-minExp)*subCount + s
}

// Histogram is a lock-free latency histogram: Observe is two atomic adds
// and integer index arithmetic, safe for any number of concurrent
// recorders, cheap enough for the estimate hot path. The zero value is
// ready to use; a nil *Histogram ignores records, so instrumentation can
// be threaded through optional paths without branching at every call site.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(d)].Add(1)
	h.sum.Add(int64(d))
}

// Snapshot captures the histogram's current state. Buckets are read
// individually (not under a lock), so a snapshot taken during concurrent
// records may be off by the in-flight handful — fine for monitoring, and
// each bucket is individually exact and monotone across snapshots.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Total += c
	}
	s.Sum = time.Duration(h.sum.Load())
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, mergeable and
// queryable without synchronization.
type HistSnapshot struct {
	Counts [NumBuckets]uint64
	Total  uint64
	Sum    time.Duration
}

// Merge adds another snapshot's records into this one (for aggregating
// per-shard or per-estimator histograms into a fleet view).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Total += o.Total
	s.Sum += o.Sum
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by locating the bucket
// holding the rank and interpolating linearly inside it. Returns 0 when
// the histogram is empty; overflow-bucket ranks report the bucket's lower
// bound (there is no finite upper bound to interpolate toward).
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Total == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Total)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lower := 0.0
			if i > 0 {
				lower = bucketBounds[i-1]
			}
			upper := bucketBounds[i]
			if math.IsInf(upper, 1) {
				return time.Duration(lower * 1e9)
			}
			frac := (rank - cum) / float64(c)
			return time.Duration((lower + (upper-lower)*frac) * 1e9)
		}
		cum = next
	}
	return time.Duration(bucketBounds[NumBuckets-2] * 1e9)
}

// Mean returns the average recorded duration (0 when empty).
func (s HistSnapshot) Mean() time.Duration {
	if s.Total == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Total)
}

// WritePrometheus renders the snapshot as one labeled series of a
// Prometheus histogram family: cumulative _bucket lines for every bound
// (terminated by le="+Inf"), then _sum and _count. labels is the
// pre-escaped label body without braces (e.g. `estimator="t",method="q"`);
// empty means an unlabeled series. The caller writes the family's
// # HELP/# TYPE header once.
func (s HistSnapshot) WritePrometheus(w io.Writer, name, labels string) {
	s.writePrometheus(w, name, labels, 1)
}

// valueUnit maps one dimensionless unit recorded via ObserveValue onto the
// histogram's tick domain: value 1.0 occupies 1ms, so the log-linear layout
// resolves values from ~1e-4 up to ~6.9e4 (a q-error of tens of thousands)
// with the same ≤25% relative bucket width it gives latencies, before the
// overflow bucket.
const valueUnit = float64(time.Millisecond)

// valueScale converts a bucket bound in seconds back into value units.
const valueScale = 1e9 / valueUnit

// ObserveValue records one non-negative dimensionless value (a realized
// q-error) by mapping it onto the duration domain (1.0 ↔ 1ms). NaN and
// negative values are ignored; values past the mappable range land in the
// overflow bucket.
func (h *Histogram) ObserveValue(v float64) {
	if h == nil || math.IsNaN(v) || v < 0 {
		return
	}
	d := v * valueUnit
	if d > float64(math.MaxInt64) {
		d = float64(math.MaxInt64)
	}
	h.Observe(time.Duration(d))
}

// ValueQuantile reads a quantile of a value histogram (one recorded through
// ObserveValue) back in value units.
func (s HistSnapshot) ValueQuantile(q float64) float64 {
	return float64(s.Quantile(q)) / valueUnit
}

// WritePrometheusValue renders a value histogram (recorded through
// ObserveValue) with le bounds and _sum scaled out of the duration domain,
// so the exposition reads in true dimensionless units.
func (s HistSnapshot) WritePrometheusValue(w io.Writer, name, labels string) {
	s.writePrometheus(w, name, labels, valueScale)
}

func (s HistSnapshot) writePrometheus(w io.Writer, name, labels string, scale float64) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if !math.IsInf(bucketBounds[i], 1) {
			le = strconv.FormatFloat(bucketBounds[i]*scale, 'g', -1, 64)
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum)
	}
	sum := s.Sum.Seconds() * scale
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, sum, name, s.Total)
		return
	}
	fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, sum, name, labels, s.Total)
}
