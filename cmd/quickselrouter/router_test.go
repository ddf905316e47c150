package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"quicksel/internal/cluster"
	"quicksel/internal/obs"
	"quicksel/internal/replica"
	"quicksel/internal/server"
)

// fakeShard is a scriptable stand-in for one quickseld node: it answers the
// health surface the tracker probes plus canned /v1 responses, and records
// every proxied request so tests can assert placement.
type fakeShard struct {
	srv *httptest.Server

	mu         sync.Mutex
	role       string
	caughtUp   bool
	lag        uint64
	estimators []string           // GET /v1/estimators answer
	sels       map[string]float64 // per-where batch selectivity answer
	reject503  string             // when set, /v1 writes 503 with this primary hint
	status     int                // when set, /v1 requests answer this status...
	answer     string             // ...with this body (a JSON error when empty)
	telem      *obs.Telemetry     // GET /v1/telemetry answer (404 when nil)
	nodeID     string             // stamped on echoed trace headers
	reqs       []recordedReq
}

type recordedReq struct {
	method string
	path   string
	query  string
	reqID  string
	body   string
}

func newFakeShard(t *testing.T, role string) *fakeShard {
	t.Helper()
	f := &fakeShard{role: role, caughtUp: true, sels: map[string]float64{}}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v1/replication/status", func(w http.ResponseWriter, _ *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		resp := map[string]any{"role": f.role, "advertise_url": f.srv.URL}
		if f.role == "follower" {
			resp["replication"] = map[string]any{"lag": f.lag, "caught_up": f.caughtUp}
		}
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("GET /v1/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		f.mu.Lock()
		tel := f.telem
		f.mu.Unlock()
		if tel == nil {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(tel)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		f.mu.Lock()
		f.reqs = append(f.reqs, recordedReq{
			method: r.Method,
			path:   r.URL.Path,
			query:  r.URL.RawQuery,
			reqID:  r.Header.Get("X-Request-Id"),
			body:   string(body),
		})
		reject := f.reject503
		status, answer := f.status, f.answer
		node := f.nodeID
		// Mirror quickseld's trace echo: a sampled upstream traceparent gets
		// the completed child span back on X-Quickseld-Trace (a plain header
		// here — the router also accepts the non-trailer form).
		if id, parent, sampled, ok := obs.ParseTraceParent(r.Header.Get(obs.HeaderTraceParent)); ok && sampled {
			child := obs.Trace{
				ID: id, Parent: parent, Node: node, Kind: "http",
				Name:   r.Method + " " + r.URL.Path,
				Status: http.StatusOK,
				Stages: []obs.Stage{{Name: "decode", Dur: time.Microsecond}, {Name: "model", Dur: time.Millisecond}},
			}
			if v, ok := obs.EncodeTraceHeader(child); ok {
				w.Header().Set(obs.HeaderTrace, v)
			}
		}
		ests := append([]string(nil), f.estimators...)
		sels := make(map[string]float64, len(f.sels))
		for k, v := range f.sels {
			sels[k] = v
		}
		f.mu.Unlock()

		if reject != "" {
			w.Header().Set(replica.HeaderPrimary, reject)
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"this node is a follower"}`)
			return
		}
		if status != 0 {
			if answer == "" {
				answer = fmt.Sprintf(`{"error":"scripted %d"}`, status)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			io.WriteString(w, answer)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.Method == "GET" && r.URL.Path == "/v1/estimators":
			type est struct {
				Name string `json:"name"`
			}
			out := make([]est, len(ests))
			for i, e := range ests {
				out[i] = est{Name: e}
			}
			json.NewEncoder(w).Encode(map[string]any{"estimators": out})
		case strings.HasSuffix(r.URL.Path, "/estimate/batch"):
			var req struct {
				Wheres []string `json:"wheres"`
			}
			json.Unmarshal(body, &req)
			out := make([]float64, len(req.Wheres))
			for i, wh := range req.Wheres {
				out[i] = sels[wh]
			}
			json.NewEncoder(w).Encode(map[string]any{"selectivities": out})
		case strings.HasSuffix(r.URL.Path, "/estimate"):
			json.NewEncoder(w).Encode(map[string]any{"selectivity": sels[r.URL.Query().Get("where")]})
		case strings.HasSuffix(r.URL.Path, "/observe"):
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintln(w, `{"status":"buffered"}`)
		case r.Method == "POST" && r.URL.Path == "/v1/estimators":
			w.WriteHeader(http.StatusCreated)
			fmt.Fprintln(w, `{"status":"created"}`)
		default:
			fmt.Fprintln(w, `{"status":"ok"}`)
		}
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeShard) setReject(hint string) {
	f.mu.Lock()
	f.reject503 = hint
	if hint != "" {
		f.role = "follower"
	} else {
		f.role = "primary"
	}
	f.mu.Unlock()
}

// setStatus scripts every later /v1 answer: status with body.
func (f *fakeShard) setStatus(status int, body string) {
	f.mu.Lock()
	f.status, f.answer = status, body
	f.mu.Unlock()
}

func (f *fakeShard) requests() []recordedReq {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]recordedReq(nil), f.reqs...)
}

func (f *fakeShard) count() int { return len(f.requests()) }

// testRouter wires fakes into a router behind an httptest server. shards
// maps shard ID → node fakes (first is the presumed primary). The tracker
// is NOT started unless startTracker is true: the presumed-primary default
// is enough for pure routing tests and keeps them deterministic.
func testRouter(t *testing.T, shards map[string][]*fakeShard, startTracker, readFollowers bool) (*Router, *httptest.Server) {
	t.Helper()
	specs := make([]cluster.Shard, 0, len(shards))
	for id, fakes := range shards {
		sh := cluster.Shard{ID: id}
		for _, f := range fakes {
			sh.Nodes = append(sh.Nodes, cluster.Node{URL: f.srv.URL})
		}
		specs = append(specs, sh)
	}
	m, err := cluster.BuildMap(specs)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := cluster.NewTracker(m, cluster.TrackerConfig{
		Interval:   20 * time.Millisecond,
		MaxReadLag: 0,
		Logger:     obs.Discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if startTracker {
		tracker.Start()
		t.Cleanup(tracker.Stop)
	}
	rt := newRouter(tracker, routerConfig{
		readFromFollowers: readFollowers,
		client:            &http.Client{Timeout: 5 * time.Second},
		log:               obs.Discard(),
		traceSample:       1.0,
	})
	srv := httptest.NewServer(rt)
	t.Cleanup(srv.Close)
	return rt, srv
}

func doReq(t *testing.T, method, url, body string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

func waitReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("router never became ready")
}

// TestRouterRoutesByOwner: name-addressed requests land on the ring owner's
// primary, and query strings survive the proxy.
func TestRouterRoutesByOwner(t *testing.T) {
	a, b := newFakeShard(t, "primary"), newFakeShard(t, "primary")
	fakes := map[string][]*fakeShard{"s0": {a}, "s1": {b}}
	rt, srv := testRouter(t, fakes, false, false)

	names := []string{"ord", "cust", "line", "part", "supp", "web_events", "m1", "m2"}
	for _, name := range names {
		status, body, _ := doReq(t, "POST", srv.URL+"/v1/"+name+"/observe",
			`{"where":"age > 30","selectivity":0.5}`, nil)
		if status != http.StatusAccepted {
			t.Fatalf("observe %s: status %d: %s", name, status, body)
		}
	}
	byShard := map[string]int{}
	for _, name := range names {
		byShard[rt.tracker.Owner(name)]++
	}
	if got := a.count(); got != byShard["s0"] {
		t.Fatalf("s0 saw %d requests, ring owns %d", got, byShard["s0"])
	}
	if got := b.count(); got != byShard["s1"] {
		t.Fatalf("s1 saw %d requests, ring owns %d", got, byShard["s1"])
	}

	// Query strings pass through on estimate.
	name := names[0]
	owner := rt.tracker.Owner(name)
	status, _, _ := doReq(t, "GET", srv.URL+"/v1/"+name+"/estimate?where=age+%3E+30", "", nil)
	if status != http.StatusOK {
		t.Fatalf("estimate status %d", status)
	}
	var ownerFake *fakeShard
	if owner == "s0" {
		ownerFake = a
	} else {
		ownerFake = b
	}
	reqs := ownerFake.requests()
	last := reqs[len(reqs)-1]
	if last.query != "where=age+%3E+30" {
		t.Fatalf("query not forwarded: %q", last.query)
	}
}

// TestRouterCreateRoutesByBodyName: POST /v1/estimators is routed by the
// "name" field peeked from the body, and the body reaches the shard intact.
func TestRouterCreateRoutesByBodyName(t *testing.T) {
	a, b := newFakeShard(t, "primary"), newFakeShard(t, "primary")
	rt, srv := testRouter(t, map[string][]*fakeShard{"s0": {a}, "s1": {b}}, false, false)

	body := `{"name":"people","schema":{"columns":[{"name":"age","type":"integer","min":18,"max":90}]}}`
	status, resp, _ := doReq(t, "POST", srv.URL+"/v1/estimators", body, nil)
	if status != http.StatusCreated {
		t.Fatalf("create status %d: %s", status, resp)
	}
	owner := rt.tracker.Owner("people")
	ownerFake := a
	if owner == "s1" {
		ownerFake = b
	}
	reqs := ownerFake.requests()
	if len(reqs) != 1 || reqs[0].body != body {
		t.Fatalf("create body mangled or misrouted: %+v", reqs)
	}

	// A body without a name can't be placed.
	status, _, _ = doReq(t, "POST", srv.URL+"/v1/estimators", `{"schema":{}}`, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("nameless create status %d, want 400", status)
	}
}

// TestRouterListMerges: GET /v1/estimators fans out to every shard and
// returns the union, sorted by name.
func TestRouterListMerges(t *testing.T) {
	a, b := newFakeShard(t, "primary"), newFakeShard(t, "primary")
	a.estimators = []string{"zeta", "alpha"}
	b.estimators = []string{"mid"}
	_, srv := testRouter(t, map[string][]*fakeShard{"s0": {a}, "s1": {b}}, false, false)

	status, body, _ := doReq(t, "GET", srv.URL+"/v1/estimators", "", nil)
	if status != http.StatusOK {
		t.Fatalf("list status %d: %s", status, body)
	}
	var out struct {
		Estimators []struct {
			Name string `json:"name"`
		} `json:"estimators"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(out.Estimators))
	for i, e := range out.Estimators {
		got[i] = e.Name
	}
	want := []string{"alpha", "mid", "zeta"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged list = %v, want %v", got, want)
	}
}

// TestRouterClusterBatch: the multi-estimator batch is split by ring owner,
// fanned out, and merged back into input order.
func TestRouterClusterBatch(t *testing.T) {
	a, b := newFakeShard(t, "primary"), newFakeShard(t, "primary")
	rt, srv := testRouter(t, map[string][]*fakeShard{"s0": {a}, "s1": {b}}, false, false)

	// Pick one estimator owned by each shard so the batch genuinely spans
	// both, then interleave their queries.
	estA, estB := "", ""
	for i := 0; estA == "" || estB == ""; i++ {
		name := fmt.Sprintf("est%03d", i)
		if rt.tracker.Owner(name) == "s0" && estA == "" {
			estA = name
		} else if rt.tracker.Owner(name) == "s1" && estB == "" {
			estB = name
		}
	}
	fakeFor := func(est string) *fakeShard {
		if rt.tracker.Owner(est) == "s0" {
			return a
		}
		return b
	}
	queries := make([]map[string]string, 6)
	wantSels := make([]float64, 6)
	for i := range queries {
		est := estA
		if i%2 == 1 {
			est = estB
		}
		where := fmt.Sprintf("col > %d", i)
		sel := float64(i+1) / 10
		fakeFor(est).sels[where] = sel
		queries[i] = map[string]string{"estimator": est, "where": where}
		wantSels[i] = sel
	}
	reqBody, _ := json.Marshal(map[string]any{"queries": queries})
	status, body, _ := doReq(t, "POST", srv.URL+"/v1/estimate/batch", string(reqBody), nil)
	if status != http.StatusOK {
		t.Fatalf("cluster batch status %d: %s", status, body)
	}
	var out struct {
		Selectivities []float64 `json:"selectivities"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out.Selectivities) != fmt.Sprint(wantSels) {
		t.Fatalf("selectivities = %v, want %v (input order)", out.Selectivities, wantSels)
	}
	// Each shard saw exactly one sub-batch, addressed to its estimator.
	for _, f := range []*fakeShard{a, b} {
		reqs := f.requests()
		if len(reqs) != 1 || !strings.HasSuffix(reqs[0].path, "/estimate/batch") {
			t.Fatalf("sub-batch fan-out wrong: %+v", reqs)
		}
	}

	// Validation: empty and oversized batches are rejected up front.
	status, _, _ = doReq(t, "POST", srv.URL+"/v1/estimate/batch", `{"queries":[]}`, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("empty batch status %d, want 400", status)
	}
	status, _, _ = doReq(t, "POST", srv.URL+"/v1/estimate/batch",
		`{"queries":[{"estimator":"x"}]}`, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("missing-where batch status %d, want 400", status)
	}
}

// TestRouterRetryFollowsPrimaryHint: a request answered 503 with an
// X-Quickseld-Primary hint is retried once at the hinted node, the hint is
// adopted for subsequent requests, and the reroute is counted. Proxied
// writes, the snapshot fan-out and cluster-batch sub-requests all follow
// the same rule.
func TestRouterRetryFollowsPrimaryHint(t *testing.T) {
	for _, p := range []struct {
		name, path, body string
		want             int
	}{
		{"observe", "/v1/people/observe", `{"where":"age > 30","selectivity":0.5}`, http.StatusAccepted},
		{"snapshot", "/v1/snapshot", "", http.StatusOK},
		{"cluster batch", "/v1/estimate/batch", peopleBatch, http.StatusOK},
	} {
		t.Run(p.name, func(t *testing.T) {
			old, promoted := newFakeShard(t, "primary"), newFakeShard(t, "primary")
			rt, srv := testRouter(t, map[string][]*fakeShard{"s0": {old, promoted}}, false, false)

			// The presumed primary demotes: it now refuses writes and points
			// at the promoted node.
			old.setReject(promoted.srv.URL)

			status, body, _ := doReq(t, "POST", srv.URL+p.path, p.body, nil)
			if status != p.want {
				t.Fatalf("through failover: status %d: %s", status, body)
			}
			if got := promoted.count(); got != 1 {
				t.Fatalf("promoted node saw %d requests, want the retried one", got)
			}
			if got := rt.rerouted.Load(); got != 1 {
				t.Fatalf("rerouted counter = %d, want 1", got)
			}

			// The hint was adopted: the next request goes straight to the
			// promoted node without touching the demoted one.
			before := old.count()
			status, _, _ = doReq(t, "POST", srv.URL+p.path, p.body, nil)
			if status != p.want {
				t.Fatalf("post-adoption status %d", status)
			}
			if got := old.count(); got != before {
				t.Fatalf("demoted node still receiving requests (%d -> %d)", before, got)
			}
			if got := promoted.count(); got != 2 {
				t.Fatalf("promoted node saw %d requests, want 2", got)
			}
		})
	}
}

// TestRouterFollowerReads: with -read-from-followers, estimate reads are
// balanced across the primary and the caught-up follower while writes stay
// on the primary.
func TestRouterFollowerReads(t *testing.T) {
	primary, follower := newFakeShard(t, "primary"), newFakeShard(t, "follower")
	rt, srv := testRouter(t, map[string][]*fakeShard{"s0": {primary, follower}}, true, true)
	waitReady(t, srv.URL)

	// Wait for the tracker to see the follower as a read target.
	deadline := time.Now().Add(5 * time.Second)
	for len(rt.tracker.ReadTargets("s0")) < 2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := rt.tracker.ReadTargets("s0"); len(got) != 2 {
		t.Fatalf("read targets = %v, want primary+follower", got)
	}

	for i := 0; i < 10; i++ {
		status, _, _ := doReq(t, "GET", srv.URL+"/v1/people/estimate?where=x", "", nil)
		if status != http.StatusOK {
			t.Fatalf("estimate %d: status %d", i, status)
		}
	}
	countEst := func(f *fakeShard) int {
		n := 0
		for _, r := range f.requests() {
			if strings.HasSuffix(r.path, "/estimate") {
				n++
			}
		}
		return n
	}
	pe, fe := countEst(primary), countEst(follower)
	if pe+fe != 10 || pe == 0 || fe == 0 {
		t.Fatalf("estimate split primary=%d follower=%d, want both serving", pe, fe)
	}
	if got := rt.followerReads.Load(); got != uint64(fe) {
		t.Fatalf("followerReads counter = %d, follower served %d", got, fe)
	}

	// Writes never touch the follower.
	beforeF := follower.count()
	for i := 0; i < 4; i++ {
		status, _, _ := doReq(t, "POST", srv.URL+"/v1/people/observe",
			`{"where":"age > 30","selectivity":0.5}`, nil)
		if status != http.StatusAccepted {
			t.Fatalf("observe status %d", status)
		}
	}
	if got := follower.count(); got != beforeF {
		t.Fatalf("follower received writes (%d -> %d)", beforeF, got)
	}
}

// TestRouterClusterStatusAndMetrics: the aggregated status endpoint reports
// the ring version and per-shard health, and /metrics carries the per-shard
// series.
func TestRouterClusterStatusAndMetrics(t *testing.T) {
	a, b := newFakeShard(t, "primary"), newFakeShard(t, "primary")
	rt, srv := testRouter(t, map[string][]*fakeShard{"s0": {a}, "s1": {b}}, true, false)
	waitReady(t, srv.URL)

	status, body, _ := doReq(t, "GET", srv.URL+"/v1/cluster/status", "", nil)
	if status != http.StatusOK {
		t.Fatalf("cluster status %d: %s", status, body)
	}
	var st struct {
		RingVersion string                `json:"ring_version"`
		Vnodes      int                   `json:"vnodes"`
		Ready       bool                  `json:"ready"`
		Shards      []cluster.ShardHealth `json:"shards"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.RingVersion != fmt.Sprintf("%016x", rt.tracker.Ring().Version()) {
		t.Fatalf("ring_version = %q", st.RingVersion)
	}
	if !st.Ready || st.Vnodes != cluster.DefaultVnodes || len(st.Shards) != 2 {
		t.Fatalf("cluster status = %+v", st)
	}
	for _, sh := range st.Shards {
		if !sh.PrimaryLive || sh.PrimaryURL == "" {
			t.Fatalf("shard %s not live in status: %+v", sh.ID, sh)
		}
	}

	// Generate one proxied request so per-shard counters are non-zero.
	doReq(t, "GET", srv.URL+"/v1/people/estimate?where=x", "", nil)

	_, metrics, _ := doReq(t, "GET", srv.URL+"/metrics", "", nil)
	for _, want := range []string{
		"quickselrouter_requests_total",
		"quickselrouter_retried_total",
		"quickselrouter_rerouted_total",
		`quickselrouter_shard_requests_total{shard="s0"}`,
		`quickselrouter_shard_requests_total{shard="s1"}`,
		`quickselrouter_shard_request_seconds_bucket{shard="s0"`,
		"quickselrouter_ready 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestRouterRequestIDPropagation: the client's X-Request-Id rides through
// the proxy to the shard and back on the response.
func TestRouterRequestIDPropagation(t *testing.T) {
	a := newFakeShard(t, "primary")
	_, srv := testRouter(t, map[string][]*fakeShard{"s0": {a}}, false, false)

	status, _, hdr := doReq(t, "POST", srv.URL+"/v1/people/observe",
		`{"where":"age > 30","selectivity":0.5}`, map[string]string{"X-Request-Id": "client-77"})
	if status != http.StatusAccepted {
		t.Fatalf("observe status %d", status)
	}
	reqs := a.requests()
	if len(reqs) != 1 || reqs[0].reqID != "client-77" {
		t.Fatalf("shard saw request id %q, want client-77", reqs[0].reqID)
	}
	if got := hdr.Get("X-Request-Id"); got != "client-77" {
		t.Fatalf("response request id = %q", got)
	}

	// Without an incoming ID the router mints one for the shard leg.
	doReq(t, "POST", srv.URL+"/v1/people/observe", `{"where":"age > 30","selectivity":0.5}`, nil)
	reqs = a.requests()
	if reqs[1].reqID == "" {
		t.Fatal("router forwarded an empty request id")
	}
}

// TestRouterDrain: SetDraining fails readiness while in-flight proxying
// still works.
func TestRouterDrain(t *testing.T) {
	a := newFakeShard(t, "primary")
	rt, srv := testRouter(t, map[string][]*fakeShard{"s0": {a}}, true, false)
	waitReady(t, srv.URL)

	rt.SetDraining()
	status, body, _ := doReq(t, "GET", srv.URL+"/readyz", "", nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status %d: %s", status, body)
	}
	// Existing traffic still proxies.
	status, _, _ = doReq(t, "GET", srv.URL+"/v1/people/estimate?where=x", "", nil)
	if status != http.StatusOK {
		t.Fatalf("estimate while draining: status %d", status)
	}
}

// TestParseShardFlag: the -shard grammar and its error cases.
func TestParseShardFlag(t *testing.T) {
	sh, err := parseShardFlag("s0=http://a:1,http://b:2")
	if err != nil {
		t.Fatal(err)
	}
	if sh.ID != "s0" || len(sh.Nodes) != 2 || sh.Nodes[1].URL != "http://b:2" {
		t.Fatalf("parsed shard = %+v", sh)
	}
	for _, bad := range []string{"", "s0", "s0=", "=http://a:1", " = "} {
		if _, err := parseShardFlag(bad); err == nil {
			t.Fatalf("%q parsed without error", bad)
		}
	}
}

// shardTelemetry builds a minimal quickseld-shaped telemetry snapshot for a
// fake shard: one counter and one latency histogram with n observations.
func shardTelemetry(node, role string, requests float64, n int) *obs.Telemetry {
	var h obs.Histogram
	for i := 0; i < n; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond)
	}
	return &obs.Telemetry{
		Version: obs.TelemetryVersion,
		Node:    node,
		Role:    role,
		Families: []obs.Family{
			{
				Name: "quickseld_requests_estimate_total", Help: "Estimates.", Type: "counter",
				Series: []obs.NumSeries{{Value: requests}},
			},
			{
				Name: "quickseld_estimate_duration_seconds", Help: "Estimate latency.", Type: "histogram",
				Hist: []obs.HistSeries{obs.HistSeriesFrom(map[string]string{"estimator": "people"}, h.Snapshot())},
			},
		},
	}
}

// TestRouterFederatedMetrics: with telemetry polling on, the router's
// /metrics grows cluster-merged quickselcluster_* families — counters
// summed and histogram buckets merged across shards, labeled by shard and
// role — and the whole body passes the exposition validator.
func TestRouterFederatedMetrics(t *testing.T) {
	a, b := newFakeShard(t, "primary"), newFakeShard(t, "primary")
	a.mu.Lock()
	a.telem = shardTelemetry("node-a", "primary", 10, 3)
	a.mu.Unlock()
	b.mu.Lock()
	b.telem = shardTelemetry("node-b", "primary", 4, 2)
	b.mu.Unlock()

	m, err := cluster.BuildMap([]cluster.Shard{
		{ID: "s0", Nodes: []cluster.Node{{URL: a.srv.URL}}},
		{ID: "s1", Nodes: []cluster.Node{{URL: b.srv.URL}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := cluster.NewTracker(m, cluster.TrackerConfig{
		Interval:      20 * time.Millisecond,
		Logger:        obs.Discard(),
		PollTelemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tracker.Start()
	t.Cleanup(tracker.Stop)
	rt := newRouter(tracker, routerConfig{
		client:      &http.Client{Timeout: 5 * time.Second},
		log:         obs.Discard(),
		traceSample: 1.0,
		staleAfter:  time.Minute,
	})
	srv := httptest.NewServer(rt)
	t.Cleanup(srv.Close)
	waitReady(t, srv.URL)

	// Wait for both shards' snapshots to arrive at the tracker.
	deadline := time.Now().Add(5 * time.Second)
	var metrics string
	for {
		_, body, _ := doReq(t, "GET", srv.URL+"/metrics", "", nil)
		metrics = string(body)
		if strings.Contains(metrics, `quickselcluster_requests_estimate_total{role="primary",shard="s0"} 10`) &&
			strings.Contains(metrics, `quickselcluster_requests_estimate_total{role="primary",shard="s1"} 4`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("federated families never appeared on /metrics:\n%s", metrics)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := obs.ValidateExposition(strings.NewReader(metrics)); err != nil {
		t.Fatalf("federated /metrics exposition invalid: %v", err)
	}
	for _, want := range []string{
		`quickselcluster_estimate_duration_seconds_count{estimator="people",role="primary",shard="s0"} 3`,
		`quickselcluster_estimate_duration_seconds_count{estimator="people",role="primary",shard="s1"} 2`,
		`quickselcluster_telemetry_stale{node="s0/0",shard="s0"} 0`,
		"quickselcluster_telemetry_age_seconds{",
		"quickselrouter_build_info{",
		"quickselrouter_goroutines ",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("federated /metrics missing %q:\n%s", want, metrics)
		}
	}

	// /v1/cluster/telemetry serves the merged view plus raw per-node
	// snapshots with provenance.
	status, body, _ := doReq(t, "GET", srv.URL+"/v1/cluster/telemetry", "", nil)
	if status != http.StatusOK {
		t.Fatalf("cluster telemetry status %d: %s", status, body)
	}
	var ct struct {
		Version int                     `json:"version"`
		Merged  obs.Telemetry           `json:"merged"`
		Nodes   []cluster.NodeTelemetry `json:"nodes"`
	}
	if err := json.Unmarshal(body, &ct); err != nil {
		t.Fatalf("decode cluster telemetry %s: %v", body, err)
	}
	if ct.Version != obs.TelemetryVersion || len(ct.Nodes) != 2 {
		t.Fatalf("cluster telemetry = version %d, %d nodes", ct.Version, len(ct.Nodes))
	}
	for _, n := range ct.Nodes {
		if n.Telemetry == nil || n.Err != "" || n.Role != "primary" {
			t.Fatalf("node telemetry incomplete: %+v", n)
		}
	}
}

// TestRouterTraceStitching: a traced request through the router produces
// one tree in /debug/requests — the router's root span with its queue and
// proxy stages plus the shard's echoed child span, parented correctly.
func TestRouterTraceStitching(t *testing.T) {
	a := newFakeShard(t, "primary")
	a.mu.Lock()
	a.nodeID = "shard-node-1"
	a.mu.Unlock()
	_, srv := testRouter(t, map[string][]*fakeShard{"s0": {a}}, false, false)

	status, _, hdr := doReq(t, "GET", srv.URL+"/v1/people/estimate?where=x", "", nil)
	if status != http.StatusOK {
		t.Fatalf("estimate status %d", status)
	}
	id := hdr.Get("X-Request-Id")
	if id == "" {
		t.Fatal("no X-Request-Id on traced response")
	}

	status, body, _ := doReq(t, "GET", srv.URL+"/debug/requests", "", nil)
	if status != http.StatusOK {
		t.Fatalf("debug requests status %d", status)
	}
	var dbg struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	var root *obs.Trace
	for i := range dbg.Traces {
		if dbg.Traces[i].ID == id {
			root = &dbg.Traces[i]
			break
		}
	}
	if root == nil {
		t.Fatalf("request %s not in /debug/requests (%d traces)", id, len(dbg.Traces))
	}
	if root.Kind != "router" || root.Status != http.StatusOK {
		t.Fatalf("root span = kind %q status %d", root.Kind, root.Status)
	}
	stages := map[string]bool{}
	for _, st := range root.Stages {
		stages[st.Name] = true
	}
	if !stages["queue"] || !stages["proxy"] {
		t.Fatalf("root stages %v missing queue/proxy", root.Stages)
	}
	if len(root.Children) != 1 {
		t.Fatalf("stitched children = %d, want 1", len(root.Children))
	}
	child := root.Children[0]
	if child.ID != id || child.Node != "shard-node-1" || child.Parent != root.SpanID {
		t.Fatalf("child span = id %q node %q parent %q (root span %q)",
			child.ID, child.Node, child.Parent, root.SpanID)
	}
	var childStages []string
	for _, st := range child.Stages {
		childStages = append(childStages, st.Name)
	}
	if !strings.Contains(strings.Join(childStages, ","), "model") {
		t.Fatalf("child stages %v missing model", childStages)
	}
}

// TestRouterTraceSamplingOff: with -trace-sample 0 the router propagates
// the unsampled decision to the shard (so it does not trace either) while
// the request id still flows; nothing lands in the trace ring.
func TestRouterTraceSamplingOff(t *testing.T) {
	a := newFakeShard(t, "primary")
	specs := []cluster.Shard{{ID: "s0", Nodes: []cluster.Node{{URL: a.srv.URL}}}}
	m, err := cluster.BuildMap(specs)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := cluster.NewTracker(m, cluster.TrackerConfig{
		Interval: 20 * time.Millisecond,
		Logger:   obs.Discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := newRouter(tracker, routerConfig{
		client:      &http.Client{Timeout: 5 * time.Second},
		log:         obs.Discard(),
		traceSample: 0,
	})
	srv := httptest.NewServer(rt)
	t.Cleanup(srv.Close)

	status, _, hdr := doReq(t, "GET", srv.URL+"/v1/people/estimate?where=x", "", nil)
	if status != http.StatusOK {
		t.Fatalf("estimate status %d", status)
	}
	if hdr.Get("X-Request-Id") == "" {
		t.Fatal("sampled-out request lost its X-Request-Id")
	}

	reqs := a.requests()
	if len(reqs) != 1 {
		t.Fatalf("shard requests = %d", len(reqs))
	}

	status, body, _ := doReq(t, "GET", srv.URL+"/debug/requests", "", nil)
	if status != http.StatusOK {
		t.Fatalf("debug requests status %d", status)
	}
	var dbg struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Traces) != 0 {
		t.Fatalf("sampled-out request recorded %d traces", len(dbg.Traces))
	}
}

// peopleBatch is a router-level batch with one query for estimator people.
const peopleBatch = `{"queries":[{"estimator":"people","where":"age > 30"}]}`

// TestRouterShardFailures: on every path to a shard (proxy, cluster batch,
// list, snapshot) a shard's 4xx or 5xx status is the client's, and a shard
// that gives no usable answer (unreachable, or past the 8 MiB bound) is a
// 502. Only a 5xx to the client moves request_errors_total and
// shard_errors_total; a shard's 4xx is neither.
func TestRouterShardFailures(t *testing.T) {
	paths := []struct{ method, path, body string }{
		{"GET", "/v1/people/estimate?where=x", ""},
		{"POST", "/v1/estimate/batch", peopleBatch},
		{"GET", "/v1/estimators", ""},
		{"POST", "/v1/snapshot", ""},
	}
	oversize := `{"selectivity":0.5,"pad":"` + strings.Repeat("x", server.MaxRequestBytes) + `"}`
	for _, tc := range []struct {
		name       string
		fail       func(*fakeShard)
		wantStatus int
		wantText   string
	}{
		{"shard 400", func(f *fakeShard) { f.setStatus(http.StatusBadRequest, "") }, http.StatusBadRequest, "scripted 400"},
		{"shard 404", func(f *fakeShard) { f.setStatus(http.StatusNotFound, "") }, http.StatusNotFound, "scripted 404"},
		{"shard 500", func(f *fakeShard) { f.setStatus(http.StatusInternalServerError, "") }, http.StatusInternalServerError, "scripted 500"},
		{"oversize answer", func(f *fakeShard) { f.setStatus(http.StatusOK, oversize) }, http.StatusBadGateway, "exceeds"},
		{"unreachable", func(f *fakeShard) { f.srv.Close() }, http.StatusBadGateway, "shard s0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newFakeShard(t, "primary")
			rt, srv := testRouter(t, map[string][]*fakeShard{"s0": {a}}, false, false)
			tc.fail(a)
			wantErrors := uint64(0)
			if tc.wantStatus >= 500 {
				wantErrors = 1
			}
			for _, p := range paths {
				shardBefore, reqBefore := rt.shards["s0"].errors.Load(), rt.reqErrors.Load()
				status, body, _ := doReq(t, p.method, srv.URL+p.path, p.body, nil)
				if status != tc.wantStatus || !strings.Contains(string(body), tc.wantText) {
					t.Fatalf("%s %s answered %d %.200s, want %d with %q", p.method, p.path, status, body, tc.wantStatus, tc.wantText)
				}
				if got := rt.shards["s0"].errors.Load() - shardBefore; got != wantErrors {
					t.Fatalf("%s %s moved shard_errors_total by %d, want %d", p.method, p.path, got, wantErrors)
				}
				if got := rt.reqErrors.Load() - reqBefore; got != wantErrors {
					t.Fatalf("%s %s moved request_errors_total by %d, want %d", p.method, p.path, got, wantErrors)
				}
			}
		})
	}
}
