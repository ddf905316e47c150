package main

import (
	"sort"
	"time"
)

// quantile is the q-quantile of xs with linear interpolation between
// order statistics; xs is sorted in place. It is 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// trimmedMean is the mean of xs without its smallest and largest value, or
// of all of xs when it has fewer than three; xs is sorted in place. It is 0
// for an empty slice.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if len(xs) >= 3 {
		xs = xs[1 : len(xs)-1]
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailChunk is the number of consecutive requests whose p99 is one tail
// sample: the fewest with ten requests beyond the 99th percentile.
const tailChunk = 1000

// tail is the q-quantile of latencies given in completion order, taken as
// the median of the q-quantiles of consecutive tailChunk-request chunks.
// A burst of host noise then moves the chunks it falls in, not the whole
// run's tail. With fewer than two chunks it is the pooled quantile. It
// returns the value and the number of chunks.
func tail(xs []float64, q float64) (float64, int) {
	n := len(xs) / tailChunk
	if n < 2 {
		return quantile(append([]float64(nil), xs...), q), 1
	}
	per := make([]float64, n)
	for i := range per {
		per[i] = quantile(append([]float64(nil), xs[i*tailChunk:(i+1)*tailChunk]...), q)
	}
	return median(per), n
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

func latencies(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	return out
}
