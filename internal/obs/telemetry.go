package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The telemetry snapshot is the federation wire format behind quickseld's
// GET /v1/telemetry: every metric family the daemon exposes on /metrics, in
// a structured, versioned, mergeable form. Histograms travel as raw bucket
// counts (not quantiles) because bucket counts are the one representation
// that merges losslessly across nodes — a router sums the buckets of every
// shard and reads cluster-level quantiles off the merged snapshot, which is
// impossible with pre-digested percentiles. The same struct renders back to
// Prometheus text exposition via WritePrometheus, so the router's federated
// /metrics view and each node's local one come from one code path.

// TelemetryVersion is the schema version stamped on every snapshot; a
// consumer ignores snapshots with a version it does not understand.
const TelemetryVersion = 1

// NumSeries is one labeled sample of a counter or gauge family. Values are
// float64 on the wire (counters above 2^53 would lose precision; no quicksel
// counter is anywhere near that within a process lifetime).
type NumSeries struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// HistSeries is one labeled series of a histogram family in raw mergeable
// form: per-bucket counts (not cumulative), trailing zero buckets trimmed
// to keep payloads small. The bucket layout is the fixed log-linear one of
// Histogram, so any two HistSeries merge bucket-wise.
type HistSeries struct {
	Labels map[string]string `json:"labels,omitempty"`
	Counts []uint64          `json:"counts"`
	Total  uint64            `json:"total"`
	SumNs  int64             `json:"sum_ns"`
}

// HistSeriesFrom packs a snapshot (and its label set) for the wire.
func HistSeriesFrom(labels map[string]string, s HistSnapshot) HistSeries {
	n := NumBuckets
	for n > 0 && s.Counts[n-1] == 0 {
		n--
	}
	counts := make([]uint64, n)
	copy(counts, s.Counts[:n])
	return HistSeries{Labels: labels, Counts: counts, Total: s.Total, SumNs: int64(s.Sum)}
}

// Snapshot unpacks the series back into a queryable, mergeable snapshot.
// It reports false when the bucket list does not fit this build's layout
// (a node running an incompatible histogram geometry); Total is recomputed
// from the counts so a malformed producer cannot skew merged quantiles.
func (hs HistSeries) Snapshot() (HistSnapshot, bool) {
	if len(hs.Counts) > NumBuckets {
		return HistSnapshot{}, false
	}
	var s HistSnapshot
	for i, c := range hs.Counts {
		s.Counts[i] = c
		s.Total += c
	}
	s.Sum = time.Duration(hs.SumNs)
	return s, true
}

// Family is one metric family: name, help, type, and its labeled series —
// Series for counters and gauges, Hist for histograms.
type Family struct {
	Name string `json:"name"`
	Help string `json:"help"`
	Type string `json:"type"` // "counter" | "gauge" | "histogram"
	// Unit distinguishes histogram domains: "" (seconds, the default) or
	// "value" for dimensionless families recorded via ObserveValue, whose
	// exposition scales le bounds out of the duration mapping.
	Unit   string       `json:"unit,omitempty"`
	Series []NumSeries  `json:"series,omitempty"`
	Hist   []HistSeries `json:"hist,omitempty"`
}

// Telemetry is the versioned snapshot of one node's metric state.
type Telemetry struct {
	Version       int      `json:"version"`
	Node          string   `json:"node,omitempty"`
	Role          string   `json:"role,omitempty"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	Families      []Family `json:"families"`
}

// AddCounter appends an unlabeled counter family.
func (t *Telemetry) AddCounter(name, help string, v uint64) {
	t.Families = append(t.Families, Family{
		Name: name, Help: help, Type: "counter",
		Series: []NumSeries{{Value: float64(v)}},
	})
}

// AddGauge appends an unlabeled gauge family.
func (t *Telemetry) AddGauge(name, help string, v float64) {
	t.Families = append(t.Families, Family{
		Name: name, Help: help, Type: "gauge",
		Series: []NumSeries{{Value: v}},
	})
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format: one # HELP/# TYPE header per family, then its series. Label sets
// render sorted by key, values escaped per the format.
func (t *Telemetry) WritePrometheus(w io.Writer) {
	for _, f := range t.Families {
		typ := f.Type
		if typ == "" {
			typ = "gauge"
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, typ)
		if typ == "histogram" {
			for _, hs := range f.Hist {
				snap, ok := hs.Snapshot()
				if !ok {
					continue
				}
				if f.Unit == "value" {
					snap.WritePrometheusValue(w, f.Name, LabelString(hs.Labels))
				} else {
					snap.WritePrometheus(w, f.Name, LabelString(hs.Labels))
				}
			}
			continue
		}
		for _, s := range f.Series {
			if len(s.Labels) == 0 {
				fmt.Fprintf(w, "%s %s\n", f.Name, formatMetricValue(s.Value))
				continue
			}
			fmt.Fprintf(w, "%s{%s} %s\n", f.Name, LabelString(s.Labels), formatMetricValue(s.Value))
		}
	}
}

// LabelString renders a label set as the brace body of an exposition line
// (`k1="v1",k2="v2"`), keys sorted for determinism, values escaped. Empty
// or nil maps render as "".
func LabelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(labels[k]))
		b.WriteByte('"')
	}
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// formatMetricValue renders integral values without an exponent (the common
// case for counters) and everything else in shortest-float form.
func formatMetricValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
