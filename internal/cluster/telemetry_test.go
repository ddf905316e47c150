package cluster

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"quicksel/internal/obs"
)

// telemetryOf builds a small per-node snapshot with one counter family and
// one histogram family, parameterized so merge arithmetic is checkable.
func telemetryOf(node, role string, requests float64, latencies ...time.Duration) *obs.Telemetry {
	var h obs.Histogram
	for _, d := range latencies {
		h.Observe(d)
	}
	return &obs.Telemetry{
		Version: obs.TelemetryVersion,
		Node:    node,
		Role:    role,
		Families: []obs.Family{
			{
				Name: "quickseld_requests_total", Help: "Requests.", Type: "counter",
				Series: []obs.NumSeries{{Labels: map[string]string{"route": "observe"}, Value: requests}},
			},
			{
				Name: "quickseld_backlog", Help: "Backlog.", Type: "gauge",
				Series: []obs.NumSeries{{Value: 7}},
			},
			{
				Name: "quickseld_request_seconds", Help: "Latency.", Type: "histogram",
				Hist: []obs.HistSeries{obs.HistSeriesFrom(nil, h.Snapshot())},
			},
		},
	}
}

func findFamily(t *testing.T, tel obs.Telemetry, name string) obs.Family {
	t.Helper()
	for _, f := range tel.Families {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("federated telemetry missing family %q; have %v", name, func() []string {
		var names []string
		for _, f := range tel.Families {
			names = append(names, f.Name)
		}
		return names
	}())
	return obs.Family{}
}

func TestFederateMergesCountersAndHistograms(t *testing.T) {
	now := time.Now()
	nodes := []NodeTelemetry{
		{Shard: "s0", Node: "a", Role: "primary", FetchedAt: now,
			Telemetry: telemetryOf("a", "primary", 10, time.Millisecond, 2*time.Millisecond)},
		{Shard: "s0", Node: "b", Role: "follower", FetchedAt: now,
			Telemetry: telemetryOf("b", "follower", 4, 3*time.Millisecond)},
		{Shard: "s1", Node: "c", Role: "primary", FetchedAt: now,
			Telemetry: telemetryOf("c", "primary", 1, 5*time.Millisecond)},
		// Same shard+role as node c: series must SUM, not duplicate.
		{Shard: "s1", Node: "d", Role: "primary", FetchedAt: now,
			Telemetry: telemetryOf("d", "primary", 2, 7*time.Millisecond)},
	}
	fed := Federate(nodes, time.Minute, now)
	if fed.Version != obs.TelemetryVersion {
		t.Fatalf("federated version = %d", fed.Version)
	}

	counters := findFamily(t, fed, "quickselcluster_requests_total")
	got := map[string]float64{}
	for _, s := range counters.Series {
		got[s.Labels["shard"]+"/"+s.Labels["role"]] = s.Value
	}
	want := map[string]float64{"s0/primary": 10, "s0/follower": 4, "s1/primary": 3}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("counter %s = %g, want %g (all: %v)", k, got[k], v, got)
		}
	}
	for _, s := range counters.Series {
		if s.Labels["route"] != "observe" {
			t.Errorf("original label lost: %v", s.Labels)
		}
	}

	hists := findFamily(t, fed, "quickselcluster_request_seconds")
	var s1Total uint64
	for _, hs := range hists.Hist {
		if hs.Labels["shard"] == "s1" {
			s1Total += hs.Total
			if hs.Labels["role"] != "primary" {
				t.Errorf("s1 hist role = %q", hs.Labels["role"])
			}
		}
	}
	if s1Total != 2 {
		t.Errorf("s1 merged histogram total = %d, want 2 (one obs per node)", s1Total)
	}

	// Gauges are per-node facts: they must NOT appear in the merged view.
	for _, f := range fed.Families {
		if f.Name == "quickselcluster_backlog" {
			t.Fatal("gauge family leaked into the federated output")
		}
	}

	// The merged exposition must validate.
	var b strings.Builder
	fed.WritePrometheus(&b)
	if err := obs.ValidateExposition(strings.NewReader(b.String())); err != nil {
		t.Fatalf("federated exposition invalid: %v\n%s", err, b.String())
	}
}

func TestFederateStaleness(t *testing.T) {
	now := time.Now()
	nodes := []NodeTelemetry{
		{Shard: "s0", Node: "fresh", FetchedAt: now.Add(-time.Second),
			Telemetry: telemetryOf("fresh", "primary", 1)},
		{Shard: "s0", Node: "old", FetchedAt: now.Add(-time.Minute),
			Telemetry: telemetryOf("old", "primary", 1)},
		{Shard: "s1", Node: "never"}, // never answered: nil snapshot
	}
	fed := Federate(nodes, 5*time.Second, now)

	stale := findFamily(t, fed, "quickselcluster_telemetry_stale")
	got := map[string]float64{}
	for _, s := range stale.Series {
		got[s.Labels["node"]] = s.Value
	}
	if got["fresh"] != 0 || got["old"] != 1 || got["never"] != 1 {
		t.Fatalf("staleness gauges = %v, want fresh=0 old=1 never=1", got)
	}

	age := findFamily(t, fed, "quickselcluster_telemetry_age_seconds")
	ages := map[string]float64{}
	for _, s := range age.Series {
		ages[s.Labels["node"]] = s.Value
	}
	if _, ok := ages["never"]; ok {
		t.Error("never-answered node must not report an age")
	}
	if a := ages["fresh"]; a < 0.9 || a > 1.1 {
		t.Errorf("fresh age = %g, want ~1s", a)
	}
}

func TestFederateSkipsIncompatibleVersions(t *testing.T) {
	now := time.Now()
	tel := telemetryOf("x", "primary", 5)
	tel.Version = obs.TelemetryVersion + 1
	fed := Federate([]NodeTelemetry{
		{Shard: "s0", Node: "x", FetchedAt: now, Telemetry: tel},
	}, time.Minute, now)
	for _, f := range fed.Families {
		if strings.HasPrefix(f.Name, "quickselcluster_requests") {
			t.Fatal("incompatible telemetry version was merged")
		}
	}
}

// TestTrackerPollsTelemetryAndFlipsStale drives the real tracker against a
// fake node: the telemetry snapshot arrives on the health cadence, and when
// the node stops answering, Federate's staleness gauge flips to 1 while the
// last-good snapshot is retained.
func TestTrackerPollsTelemetryAndFlipsStale(t *testing.T) {
	f := newFakeNode("primary", true)
	defer f.Close()
	telemHits := 0
	f.srv.Config.Handler.(*http.ServeMux).HandleFunc("GET /v1/telemetry", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.down {
			panic(http.ErrAbortHandler)
		}
		telemHits++
		json.NewEncoder(w).Encode(telemetryOf("fake", "primary", float64(telemHits)))
	})

	tr := trackerFor(t, TrackerConfig{},
		Shard{ID: "s0", Nodes: []Node{{URL: f.srv.URL}}})

	deadline := time.Now().Add(5 * time.Second)
	var nodes []NodeTelemetry
	for {
		nodes = tr.Telemetry()
		if len(nodes) == 1 && nodes[0].Telemetry != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tracker never polled telemetry: %+v", nodes)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if nodes[0].Role != "primary" || nodes[0].Shard != "s0" {
		t.Fatalf("node telemetry provenance wrong: %+v", nodes[0])
	}
	fed := Federate(nodes, time.Minute, time.Now())
	stale := findFamily(t, fed, "quickselcluster_telemetry_stale")
	if len(stale.Series) != 1 || stale.Series[0].Value != 0 {
		t.Fatalf("fresh node reported stale: %+v", stale.Series)
	}

	// Kill the node. The snapshot is retained but its age now grows; with a
	// tiny staleAfter the gauge must flip to 1.
	f.set(func(f *fakeNode) { f.down = true })
	time.Sleep(50 * time.Millisecond)
	nodes = tr.Telemetry()
	if nodes[0].Telemetry == nil {
		t.Fatal("last-good snapshot was dropped when the node went down")
	}
	fed = Federate(nodes, time.Nanosecond, time.Now())
	stale = findFamily(t, fed, "quickselcluster_telemetry_stale")
	if len(stale.Series) != 1 || stale.Series[0].Value != 1 {
		t.Fatalf("dead node not flagged stale: %+v", stale.Series)
	}
}
