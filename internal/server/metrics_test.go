package server

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"quicksel/internal/obs"
)

// scrapeMetrics fetches /metrics and returns the exposition body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	status, body := doJSON(t, "GET", base+"/metrics", "")
	mustStatus(t, http.StatusOK, status, body)
	return string(body)
}

// TestMetricsExpositionConformance drives real traffic through the daemon
// and validates the whole /metrics body against the Prometheus text
// exposition grammar — HELP/TYPE pairing, label quoting, histogram bucket
// monotonicity and the +Inf terminal — with the same parser CI uses, then
// spot-checks the new latency histogram families.
func TestMetricsExpositionConformance(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createPeople(t, ts.URL)

	status, body := doJSON(t, "POST", ts.URL+"/v1/people/observe", `{"observations": [
		{"where": "age BETWEEN 18 AND 29", "selectivity": 0.22},
		{"where": "salary >= 100000", "selectivity": 0.18}
	]}`)
	mustStatus(t, http.StatusAccepted, status, body)
	status, body = doJSON(t, "POST", ts.URL+"/v1/people/train", "{}")
	mustStatus(t, http.StatusOK, status, body)
	estimate(t, ts.URL, "people", "age BETWEEN 25 AND 44")

	text := scrapeMetrics(t, ts.URL)
	if err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}

	for _, family := range []string{
		"quickseld_observe_duration_seconds",
		"quickseld_estimate_duration_seconds",
		"quickseld_estimate_batch_duration_seconds",
		"quickseld_train_duration_seconds",
		"quickseld_snapshot_duration_seconds",
	} {
		if !strings.Contains(text, "# TYPE "+family+" histogram") {
			t.Errorf("family %s missing its TYPE histogram header", family)
		}
	}
	// The exercised paths must carry real labeled samples, not bare headers.
	for _, want := range []string{
		`quickseld_observe_duration_seconds_bucket{estimator="people",method="quicksel",le="+Inf"} 1`,
		`quickseld_estimate_duration_seconds_bucket{estimator="people",method="quicksel",le="+Inf"} 1`,
		`quickseld_observe_duration_seconds_count{estimator="people",method="quicksel"} 1`,
		`quickseld_estimate_duration_seconds_count{estimator="people",method="quicksel"} 1`,
		"quickseld_ready 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Finite-bound bucket lines must precede the terminal +Inf.
	if !strings.Contains(text, `quickseld_estimate_duration_seconds_bucket{estimator="people",method="quicksel",le="1.28e-07"}`) {
		t.Errorf("estimate histogram missing its first finite bucket")
	}
}

// TestRequestCountersPerRoute sends one request to every counted route —
// the /metrics scrape itself is the metrics route's one — and requires each
// quickseld_requests_<route>_total to read 1 in a valid exposition. A
// request counts whatever its status.
func TestRequestCountersPerRoute(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{
		SnapshotPath: filepath.Join(dir, "state.json"),
		WALDir:       filepath.Join(dir, "wal"),
	})
	createPeople(t, ts.URL)
	for _, req := range []struct{ method, path, body string }{
		{"GET", "/v1/estimators", ""},
		{"POST", "/v1/people/observe", `{"where": "age >= 30", "selectivity": 0.5}`},
		{"GET", "/v1/people/estimate?where=age+%3E%3D+30", ""},
		{"POST", "/v1/people/estimate/batch", `{"wheres": ["age >= 30"]}`},
		{"POST", "/v1/people/train", "{}"},
		{"GET", "/v1/people/versions", ""},
		{"POST", "/v1/people/rollback", "{}"},
		{"GET", "/v1/people/accuracy", ""},
		{"POST", "/v1/snapshot", ""},
		{"GET", "/v1/telemetry", ""},
		{"GET", "/v1/replication/wal?from=1", ""},
		{"GET", "/v1/replication/snapshot", ""},
		{"POST", "/v1/replication/promote", ""},
		{"GET", "/v1/replication/status", ""},
		{"DELETE", "/v1/estimators/people", ""},
	} {
		doJSON(t, req.method, ts.URL+req.path, req.body)
	}

	text := scrapeMetrics(t, ts.URL)
	if err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, route := range []string{
		"create", "observe", "estimate", "estimate_batch", "train", "list",
		"drop", "snapshot", "versions", "rollback", "accuracy", "metrics",
		"telemetry", "replication_wal", "replication_snapshot",
		"replication_promote", "replication_status",
	} {
		if want := "\nquickseld_requests_" + route + "_total 1\n"; !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", strings.TrimSpace(want))
		}
	}
}

// TestMetricsWALHistogramsGated asserts the WAL latency families appear
// exactly when the write-ahead log is enabled.
func TestMetricsWALHistogramsGated(t *testing.T) {
	_, plain := newTestServer(t, Config{})
	if text := scrapeMetrics(t, plain.URL); strings.Contains(text, "quickseld_wal_fsync_duration_seconds") {
		t.Errorf("WAL histogram exported with the WAL disabled")
	}

	_, walled := newTestServer(t, Config{WALDir: t.TempDir()})
	createPeople(t, walled.URL)
	status, body := doJSON(t, "POST", walled.URL+"/v1/people/observe",
		`{"observations": [{"where": "age >= 40", "selectivity": 0.3}]}`)
	mustStatus(t, http.StatusAccepted, status, body)
	text := scrapeMetrics(t, walled.URL)
	if err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition invalid with WAL on: %v", err)
	}
	for _, want := range []string{
		"# TYPE quickseld_wal_append_duration_seconds histogram",
		"# TYPE quickseld_wal_fsync_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The durable acks (create + observe) mean group-commit writes happened.
	if strings.Contains(text, "quickseld_wal_append_duration_seconds_count 0\n") {
		t.Errorf("WAL append histogram empty despite acknowledged records")
	}
	if !strings.Contains(text, "quickseld_wal_append_duration_seconds_count ") {
		t.Errorf("WAL append histogram count series missing")
	}
}

// TestClampSub pins the watermark-gauge subtraction: racing reads can
// observe the subtrahend ahead of the minuend, and the gauge must clamp to
// zero instead of wrapping to ~2^64.
func TestClampSub(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{5, 3, 2},
		{3, 3, 0},
		{3, 5, 0}, // the race: SyncedSeq read ahead of LastSeq
		{0, ^uint64(0), 0},
		{^uint64(0), 0, ^uint64(0)},
	}
	for _, c := range cases {
		if got := clampSub(c.a, c.b); got != c.want {
			t.Errorf("clampSub(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestReadyzLifecycle covers the readiness probe across the daemon's life:
// ready while serving (all three conditions true), not ready once Close
// stops the trainer — a draining daemon must drop out of rotation.
func TestReadyzLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	status, body := doJSON(t, "GET", ts.URL+"/readyz", "")
	mustStatus(t, http.StatusOK, status, body)
	var rd Readiness
	if err := json.Unmarshal(body, &rd); err != nil {
		t.Fatal(err)
	}
	if !rd.Ready || !rd.SnapshotRestored || !rd.WALReplayed || !rd.TrainerRunning {
		t.Fatalf("running daemon not fully ready: %+v", rd)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	status, body = doJSON(t, "GET", ts.URL+"/readyz", "")
	mustStatus(t, http.StatusServiceUnavailable, status, body)
	if err := json.Unmarshal(body, &rd); err != nil {
		t.Fatal(err)
	}
	if rd.Ready || rd.TrainerRunning {
		t.Fatalf("closed daemon still claims readiness: %+v", rd)
	}
}

// TestRequestTracing exercises the /v1 middleware: every request gets an
// X-Request-Id, and its completed trace — with the decode/model/encode
// stage breakdown — shows up in GET /debug/requests, newest first.
func TestRequestTracing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createPeople(t, ts.URL)

	resp, err := http.Get(ts.URL + "/v1/people/estimate?where=age+%3E%3D+30")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Fatal("estimate response missing X-Request-Id")
	}

	status, body := doJSON(t, "GET", ts.URL+"/debug/requests", "")
	mustStatus(t, http.StatusOK, status, body)
	var dump struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	var got *obs.Trace
	for i := range dump.Traces {
		if dump.Traces[i].ID == reqID {
			got = &dump.Traces[i]
			break
		}
	}
	if got == nil {
		t.Fatalf("trace %s not in /debug/requests (%d traces)", reqID, len(dump.Traces))
	}
	if got.Kind != "http" || got.Name != "GET /v1/people/estimate" || got.Status != http.StatusOK {
		t.Fatalf("trace = %+v", got)
	}
	stages := make([]string, len(got.Stages))
	for i, s := range got.Stages {
		stages[i] = s.Name
	}
	if want := []string{"decode", "model", "encode"}; strings.Join(stages, ",") != strings.Join(want, ",") {
		t.Fatalf("stages = %v, want %v", stages, want)
	}

	// Operational endpoints are deliberately untraced: scrapes and probe
	// traffic must not wash real requests out of the ring.
	for _, tr := range dump.Traces {
		if strings.Contains(tr.Name, "/metrics") || strings.Contains(tr.Name, "/debug/") {
			t.Fatalf("operational request traced: %+v", tr)
		}
	}
}

// TestPprofOptIn asserts the profile endpoints exist only when configured:
// profiles expose call stacks and heap contents, so serving them must be a
// deliberate choice.
func TestPprofOptIn(t *testing.T) {
	_, off := newTestServer(t, Config{})
	status, _ := doJSON(t, "GET", off.URL+"/debug/pprof/", "")
	if status != http.StatusNotFound {
		t.Fatalf("pprof served without -pprof: status %d", status)
	}

	_, on := newTestServer(t, Config{Pprof: true})
	status, body := doJSON(t, "GET", on.URL+"/debug/pprof/goroutine?debug=1", "")
	mustStatus(t, http.StatusOK, status, body)
	if !strings.Contains(string(body), "goroutine") {
		t.Fatalf("goroutine profile body unrecognizable: %.120s", body)
	}
}
