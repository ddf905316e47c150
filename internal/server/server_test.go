package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"quicksel"
)

const peopleSchema = `{"columns": [
	{"name": "age",    "kind": "integer", "min": 18, "max": 90},
	{"name": "salary", "kind": "real",    "min": 0,  "max": 300000}
]}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func doJSON(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func mustStatus(t *testing.T, wantStatus, gotStatus int, body []byte) {
	t.Helper()
	if gotStatus != wantStatus {
		t.Fatalf("status = %d, want %d; body: %s", gotStatus, wantStatus, body)
	}
}

func createPeople(t *testing.T, base string) {
	t.Helper()
	status, body := doJSON(t, "POST", base+"/v1/estimators",
		fmt.Sprintf(`{"name": "people", "schema": %s, "options": {"seed": 42}}`, peopleSchema))
	mustStatus(t, http.StatusCreated, status, body)
}

func estimate(t *testing.T, base, name, where string) float64 {
	t.Helper()
	status, body := doJSON(t, "GET",
		base+"/v1/"+name+"/estimate?where="+url.QueryEscape(where), "")
	mustStatus(t, http.StatusOK, status, body)
	var resp struct {
		Selectivity float64 `json:"selectivity"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode estimate response %s: %v", body, err)
	}
	return resp.Selectivity
}

// TestServerEndToEndRestart is the acceptance-criteria test: start the
// daemon, create an estimator, POST a batch of observations, GET an
// estimate via a WHERE clause, shut the daemon down (persisting its
// snapshot), start a fresh daemon from the snapshot file, and get the
// identical estimate.
func TestServerEndToEndRestart(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.json")
	const probe = "age BETWEEN 25 AND 44 AND salary >= 80000"

	srv1, ts1 := newTestServer(t, Config{SnapshotPath: snap})
	createPeople(t, ts1.URL)

	status, body := doJSON(t, "POST", ts1.URL+"/v1/people/observe", `{"observations": [
		{"where": "age BETWEEN 18 AND 29", "selectivity": 0.22},
		{"where": "age BETWEEN 30 AND 49", "selectivity": 0.41},
		{"where": "salary >= 100000", "selectivity": 0.18},
		{"where": "age BETWEEN 30 AND 49 AND salary >= 100000", "selectivity": 0.12},
		{"where": "salary < 40000", "selectivity": 0.35}
	]}`)
	mustStatus(t, http.StatusAccepted, status, body)
	var obsResp struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(body, &obsResp); err != nil {
		t.Fatal(err)
	}
	if obsResp.Accepted != 5 {
		t.Fatalf("accepted = %d, want 5", obsResp.Accepted)
	}

	status, body = doJSON(t, "POST", ts1.URL+"/v1/people/train", "{}")
	mustStatus(t, http.StatusOK, status, body)

	want := estimate(t, ts1.URL, "people", probe)
	if want <= 0 || want >= 1 {
		t.Fatalf("trained estimate %v not in (0, 1)", want)
	}

	// Kill the first daemon. Close flushes and writes the snapshot.
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second daemon boots from the snapshot file: the estimator exists
	// without re-creation and serves the identical estimate.
	srv2, ts2 := newTestServer(t, Config{SnapshotPath: snap})
	defer srv2.Close()
	got := estimate(t, ts2.URL, "people", probe)
	if got != want {
		t.Fatalf("estimate after restart = %v, want identical %v", got, want)
	}

	// The restored estimator keeps learning.
	status, body = doJSON(t, "POST", ts2.URL+"/v1/people/observe",
		`{"where": "age >= 70", "selectivity": 0.08}`)
	mustStatus(t, http.StatusAccepted, status, body)
	status, body = doJSON(t, "POST", ts2.URL+"/v1/people/train", "{}")
	mustStatus(t, http.StatusOK, status, body)
	sel := estimate(t, ts2.URL, "people", "age >= 70")
	if sel < 0 || sel > 1 {
		t.Fatalf("post-restart estimate %v out of range", sel)
	}
}

// TestBackgroundTraining checks the worker retrains off the query path: an
// observation becomes visible in the estimate without any explicit train
// call, and the backlog drains.
func TestBackgroundTraining(t *testing.T) {
	srv, ts := newTestServer(t, Config{TrainInterval: 10 * time.Millisecond})
	defer srv.Close()
	createPeople(t, ts.URL)

	uniform := estimate(t, ts.URL, "people", "age BETWEEN 18 AND 29")

	status, body := doJSON(t, "POST", ts.URL+"/v1/people/observe",
		`{"where": "age BETWEEN 18 AND 29", "selectivity": 0.9}`)
	mustStatus(t, http.StatusAccepted, status, body)

	deadline := time.Now().Add(5 * time.Second)
	for {
		got := estimate(t, ts.URL, "people", "age BETWEEN 18 AND 29")
		if got != uniform {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background trainer never refreshed the serving model")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var info struct {
		Estimators []EstimatorInfo `json:"estimators"`
	}
	status, body = doJSON(t, "GET", ts.URL+"/v1/estimators", "")
	mustStatus(t, http.StatusOK, status, body)
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Estimators) != 1 {
		t.Fatalf("estimators = %d, want 1", len(info.Estimators))
	}
	in := info.Estimators[0]
	if in.Backlog != 0 {
		t.Errorf("backlog = %d after training, want 0", in.Backlog)
	}
	if in.TrainRuns == 0 {
		t.Error("train_runs = 0, want > 0")
	}
}

// TestObserveBackpressure checks the bounded buffer: a tiny buffer drops
// the overflow, reports it, and answers 429 with Retry-After when nothing
// was accepted.
func TestObserveBackpressure(t *testing.T) {
	// A long train interval keeps the worker from draining mid-test.
	srv, ts := newTestServer(t, Config{BufferSize: 2, TrainInterval: time.Hour})
	defer srv.Close()
	createPeople(t, ts.URL)

	var obs []string
	for i := 0; i < 5; i++ {
		obs = append(obs, fmt.Sprintf(`{"where": "age >= %d", "selectivity": 0.5}`, 20+i))
	}
	status, body := doJSON(t, "POST", ts.URL+"/v1/people/observe",
		`{"observations": [`+strings.Join(obs, ",")+`]}`)
	mustStatus(t, http.StatusAccepted, status, body)
	var resp struct {
		Accepted, Dropped, Backlog int
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 || resp.Dropped != 3 || resp.Backlog != 2 {
		t.Fatalf("accepted/dropped/backlog = %d/%d/%d, want 2/3/2",
			resp.Accepted, resp.Dropped, resp.Backlog)
	}

	// With the buffer already full, a lone observation is rejected outright,
	// and the client is told when to retry.
	full, err := http.Post(ts.URL+"/v1/people/observe", "application/json",
		strings.NewReader(`{"where": "age >= 30", "selectivity": 0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	full.Body.Close()
	if full.StatusCode != http.StatusTooManyRequests || full.Header.Get("Retry-After") != "1" {
		t.Fatalf("full buffer answered %d with Retry-After %q, want 429 with 1",
			full.StatusCode, full.Header.Get("Retry-After"))
	}
}

// TestObserveBatchAtomic checks a batch with one invalid record queues
// nothing: a client may retry the corrected batch without double-ingesting.
func TestObserveBatchAtomic(t *testing.T) {
	srv, ts := newTestServer(t, Config{TrainInterval: time.Hour})
	defer srv.Close()
	createPeople(t, ts.URL)

	status, body := doJSON(t, "POST", ts.URL+"/v1/people/observe", `{"observations": [
		{"where": "age >= 30", "selectivity": 0.5},
		{"where": "nosuchcol >= 1", "selectivity": 0.5}
	]}`)
	mustStatus(t, http.StatusBadRequest, status, body)
	if !strings.Contains(string(body), "observation 1") {
		t.Errorf("error does not name the failing index: %s", body)
	}

	status, body = doJSON(t, "GET", ts.URL+"/v1/estimators", "")
	mustStatus(t, http.StatusOK, status, body)
	var info struct {
		Estimators []EstimatorInfo `json:"estimators"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if got := info.Estimators[0].Backlog; got != 0 {
		t.Fatalf("backlog after rejected batch = %d, want 0 (partial ingest)", got)
	}
}

// TestHTTPErrors checks the status mapping: 404 unknown name, 409 duplicate
// create, 400 malformed input.
func TestHTTPErrors(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	defer srv.Close()
	createPeople(t, ts.URL)

	status, body := doJSON(t, "GET", ts.URL+"/v1/nosuch/estimate?where="+url.QueryEscape("age >= 30"), "")
	mustStatus(t, http.StatusNotFound, status, body)

	status, body = doJSON(t, "POST", ts.URL+"/v1/estimators",
		fmt.Sprintf(`{"name": "people", "schema": %s}`, peopleSchema))
	mustStatus(t, http.StatusConflict, status, body)

	for name, req := range map[string]string{
		"bad kind":       `{"name": "x", "schema": {"columns": [{"name": "a", "kind": "complex", "min": 0, "max": 1}]}}`,
		"empty schema":   `{"name": "x", "schema": {"columns": []}}`,
		"missing schema": `{"name": "x"}`,
		"bad name":       fmt.Sprintf(`{"name": "a/b", "schema": %s}`, peopleSchema),
		"malformed json": `{`,
	} {
		status, body = doJSON(t, "POST", ts.URL+"/v1/estimators", req)
		mustStatus(t, http.StatusBadRequest, status, body)
		_ = name
	}

	for _, req := range []string{`{"where": "age >= 30", "selectivity": 1.5}`, `{"where": "age >= 30"}`} {
		status, body = doJSON(t, "POST", ts.URL+"/v1/people/observe", req)
		mustStatus(t, http.StatusBadRequest, status, body)
		if !strings.Contains(string(body), "observation 0: selectivity must be in [0, 1]") {
			t.Errorf("observe %s: body %s", req, body)
		}
	}
	status, body = doJSON(t, "POST", ts.URL+"/v1/people/observe",
		`{"where": "nosuchcol >= 30", "selectivity": 0.5}`)
	mustStatus(t, http.StatusBadRequest, status, body)
	status, body = doJSON(t, "GET", ts.URL+"/v1/people/estimate", "")
	mustStatus(t, http.StatusBadRequest, status, body)

	status, body = doJSON(t, "DELETE", ts.URL+"/v1/estimators/people", "")
	mustStatus(t, http.StatusOK, status, body)
	status, body = doJSON(t, "DELETE", ts.URL+"/v1/estimators/people", "")
	mustStatus(t, http.StatusNotFound, status, body)
}

// TestMetrics checks /metrics exposes the promised series: request counts,
// observation backlog, and last-train duration.
func TestMetrics(t *testing.T) {
	srv, ts := newTestServer(t, Config{TrainInterval: time.Hour})
	defer srv.Close()
	createPeople(t, ts.URL)

	doJSON(t, "POST", ts.URL+"/v1/people/observe", `{"where": "age >= 30", "selectivity": 0.5}`)
	estimate(t, ts.URL, "people", "age >= 40")
	doJSON(t, "POST", ts.URL+"/v1/people/train", "{}")

	status, body := doJSON(t, "GET", ts.URL+"/metrics", "")
	mustStatus(t, http.StatusOK, status, body)
	for _, want := range []string{
		"quickseld_requests_observe_total 1",
		"quickseld_requests_estimate_total 1",
		"quickseld_estimators 1",
		`quickseld_estimators_by_method{method="quicksel"} 1`,
		`quickseld_observations_total{estimator="people",method="quicksel"} 1`,
		`quickseld_observation_backlog{estimator="people",method="quicksel"} 0`,
		`quickseld_last_train_seconds{estimator="people",method="quicksel"}`,
		`quickseld_model_params{estimator="people",method="quicksel"}`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServerConcurrentHammer drives one server estimator from many
// goroutines mixing observe, estimate, train, and metrics while the
// background worker runs on a tight interval. Run under -race.
func TestServerConcurrentHammer(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.json")
	srv, ts := newTestServer(t, Config{
		SnapshotPath:  snap,
		TrainInterval: 5 * time.Millisecond,
		BufferSize:    64,
	})
	createPeople(t, ts.URL)

	const (
		goroutines = 8
		iterations = 30
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				switch (g + i) % 4 {
				case 0:
					lo := 18 + (5*g+i)%50
					status, body := doJSON(t, "POST", ts.URL+"/v1/people/observe",
						fmt.Sprintf(`{"where": "age >= %d", "selectivity": 0.%d}`, lo, 1+i%9))
					// 429 on a full buffer is legitimate backpressure.
					if status != http.StatusAccepted && status != http.StatusTooManyRequests {
						errs <- fmt.Errorf("observe status %d: %s", status, body)
						return
					}
				case 1:
					sel := estimate(t, ts.URL, "people", "salary >= 100000")
					if sel < 0 || sel > 1 {
						errs <- fmt.Errorf("estimate %v out of range", sel)
						return
					}
				case 2:
					status, body := doJSON(t, "POST", ts.URL+"/v1/people/train", "{}")
					if status != http.StatusOK {
						errs <- fmt.Errorf("train status %d: %s", status, body)
						return
					}
				default:
					status, body := doJSON(t, "GET", ts.URL+"/metrics", "")
					if status != http.StatusOK {
						errs <- fmt.Errorf("metrics status %d: %s", status, body)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A clean close after the storm persists a loadable snapshot.
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := New(Config{SnapshotPath: snap})
	if err != nil {
		t.Fatalf("reload after hammer: %v", err)
	}
	defer srv2.Close()
	if got := len(srv2.Registry().List()); got != 1 {
		t.Fatalf("estimators after reload = %d, want 1", got)
	}
}

// TestRegistryDirect exercises the registry API without HTTP: create,
// observe, synchronous train, estimate, drop.
func TestRegistryDirect(t *testing.T) {
	reg, err := NewRegistry(Config{TrainInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	schema, err := quicksel.NewSchema(
		quicksel.Column{Name: "age", Kind: quicksel.Integer, Min: 18, Max: 90},
		quicksel.Column{Name: "salary", Kind: quicksel.Real, Min: 0, Max: 300_000},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Create("people", schema); err != nil {
		t.Fatal(err)
	}

	if _, _, err := reg.Observe("people", "age BETWEEN 20 AND 29", 0.3); err != nil {
		t.Fatal(err)
	}
	if err := reg.Train("people"); err != nil {
		t.Fatal(err)
	}
	sel, err := reg.Estimate("people", "age BETWEEN 20 AND 29")
	if err != nil {
		t.Fatal(err)
	}
	if sel <= 0 || sel > 1 {
		t.Fatalf("estimate %v out of (0, 1]", sel)
	}
	if err := reg.Drop("people"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Estimate("people", "age >= 20"); err == nil {
		t.Fatal("estimate after drop succeeded")
	}
}
