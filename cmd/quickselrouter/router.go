package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quicksel/internal/cluster"
	"quicksel/internal/obs"
	"quicksel/internal/replica"
	"quicksel/internal/server"
)

// maxRetryAfter caps how long the router honors a shard's Retry-After
// before the single retry: a follower answering 503 suggests "1", but the
// promoted primary is usually reachable immediately, and parking client
// writes for whole seconds per attempt would collapse throughput during a
// failover instead of riding through it.
const maxRetryAfter = 200 * time.Millisecond

// Router is the cluster front door: it owns the placement ring and health
// tracker, proxies the /v1 surface to the owning shard, and serves the
// cluster-level endpoints (/v1/cluster/status, /metrics, /readyz).
//
// Routing policy, by endpoint class:
//
//   - Writes (create, drop, observe, train, rollback) go to the owning
//     shard's primary.
//   - Estimate reads (estimate, estimate/batch) go to the primary by
//     default; with -read-from-followers they round-robin across the
//     primary and every healthy follower within the staleness bound.
//   - List fans out to every shard's primary and merges; snapshot fans out
//     to every primary.
//   - Versions/accuracy reads go to the primary: followers do not train,
//     so their lifecycle state trails the primary's even when caught up on
//     the log.
//
// Every shard request of every class goes through forward, which owns the
// one retry rule and the per-shard metrics.
type Router struct {
	tracker  *cluster.Tracker
	client   *http.Client
	mux      *http.ServeMux
	log      *slog.Logger
	draining atomic.Bool

	readFromFollowers bool

	// Root-span tracing: ring retains completed (stitched) request traces
	// for GET /debug/requests; sampleRate is the deterministic request-id
	// sampling fraction, propagated to shards on the traceparent header so
	// the whole cluster agrees per request.
	ring       *obs.Ring
	sampleRate float64

	// staleAfter bounds how old a node's federated telemetry snapshot may
	// be before its quickselcluster_telemetry_stale gauge flips to 1.
	staleAfter time.Duration

	// Per-shard serving metrics; the map is built at boot (the shard set is
	// static for the process lifetime) so lookups are lock-free.
	shards map[string]*shardMetrics

	reqTotal      atomic.Uint64
	reqErrors     atomic.Uint64
	retried       atomic.Uint64 // second attempts, any cause
	rerouted      atomic.Uint64 // retries that followed an X-Quickseld-Primary hint
	followerReads atomic.Uint64 // estimate requests answered by a follower
	rrSeq         atomic.Uint64 // read-target round-robin cursor
}

type shardMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	latency  obs.Histogram
}

// routerConfig carries newRouter's knobs (the tracker travels separately:
// it is the one collaborator every test swaps).
type routerConfig struct {
	readFromFollowers bool
	client            *http.Client
	log               *slog.Logger
	// traceSample is the traced fraction of /v1 requests, decided at the
	// router and propagated cluster-wide (<=0 none, >=1 all).
	traceSample float64
	// traceRingSize is the completed-trace ring capacity (0 = 256).
	traceRingSize int
	// slowRequest gates the slow-trace warn log (0 disables).
	slowRequest time.Duration
	// staleAfter is the federated-telemetry staleness bound (0 = 3s).
	staleAfter time.Duration
}

func newRouter(tracker *cluster.Tracker, cfg routerConfig) *Router {
	if cfg.traceRingSize <= 0 {
		cfg.traceRingSize = 256
	}
	if cfg.staleAfter <= 0 {
		cfg.staleAfter = 3 * time.Second
	}
	rt := &Router{
		tracker:           tracker,
		client:            cfg.client,
		log:               cfg.log,
		readFromFollowers: cfg.readFromFollowers,
		ring:              obs.NewRing(cfg.traceRingSize, cfg.slowRequest, cfg.log),
		sampleRate:        cfg.traceSample,
		staleAfter:        cfg.staleAfter,
		shards:            make(map[string]*shardMetrics),
		mux:               http.NewServeMux(),
	}
	for _, id := range tracker.Ring().Shards() {
		rt.shards[id] = &shardMetrics{}
	}
	m := rt.mux
	m.HandleFunc("POST /v1/estimators", rt.handleCreate)
	m.HandleFunc("GET /v1/estimators", rt.handleList)
	m.HandleFunc("DELETE /v1/estimators/{name}", rt.byName(false))
	m.HandleFunc("POST /v1/{name}/observe", rt.byName(false))
	m.HandleFunc("GET /v1/{name}/estimate", rt.byName(true))
	m.HandleFunc("POST /v1/{name}/estimate/batch", rt.byName(true))
	m.HandleFunc("POST /v1/estimate/batch", rt.handleClusterBatch)
	m.HandleFunc("POST /v1/{name}/train", rt.byName(false))
	m.HandleFunc("GET /v1/{name}/versions", rt.byName(false))
	m.HandleFunc("POST /v1/{name}/rollback", rt.byName(false))
	m.HandleFunc("GET /v1/{name}/accuracy", rt.byName(false))
	m.HandleFunc("POST /v1/snapshot", rt.handleSnapshotFanout)
	m.HandleFunc("GET /v1/cluster/status", rt.handleClusterStatus)
	m.HandleFunc("GET /v1/cluster/telemetry", rt.handleClusterTelemetry)
	m.HandleFunc("GET /metrics", rt.handleMetrics)
	m.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	m.HandleFunc("GET /readyz", rt.handleReadyz)
	m.HandleFunc("GET /debug/requests", rt.handleDebugRequests)
	return rt
}

// ServeHTTP traces proxied /v1 traffic: the router opens the request's root
// span, decides the cluster-wide sampling fate (deterministic by request-id
// hash), and records the completed — and, via the shards' X-Quickseld-Trace
// echoes, stitched — trace into the ring behind GET /debug/requests.
// Cluster-status/telemetry and operational endpoints stay untraced so polls
// don't wash real traffic out of the ring.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/v1/") {
		rt.mux.ServeHTTP(w, r)
		return
	}
	rt.reqTotal.Add(1)
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, server.MaxRequestBytes)
	}
	if strings.HasPrefix(r.URL.Path, "/v1/cluster/") {
		rt.mux.ServeHTTP(w, r)
		return
	}
	// Normalize the request ID onto the inbound header: every shard request
	// reads it from there, and sampled-out requests still propagate it even
	// though they record no span.
	id := obs.AdoptID(r.Header.Get("X-Request-Id"))
	r.Header.Set("X-Request-Id", id)
	w.Header().Set("X-Request-Id", id)
	sw := &statusWriter{ResponseWriter: w}
	var sp *obs.Span
	if obs.SampleRequestID(id, rt.sampleRate) {
		sp = obs.StartSpanWithID("router", r.Method+" "+r.URL.Path, id)
		r = r.WithContext(obs.WithSpan(r.Context(), sp))
	}
	rt.mux.ServeHTTP(sw, r)
	code := sw.code
	if code == 0 {
		code = http.StatusOK
	}
	if code >= 500 {
		rt.reqErrors.Add(1)
	}
	if sp != nil {
		sp.SetStatus(code)
		rt.ring.Record(sp.End())
	}
}

// statusWriter captures the response status for the error counter and the
// request trace.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

type errorBody struct {
	Error string `json:"error"`
}

func (rt *Router) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		rt.log.Warn("router: encode response", slog.Any("error", err))
	}
}

// ---- upstream path ----

// proxyResult is one shard answer, body fully read.
type proxyResult struct {
	status int
	header http.Header
	body   []byte
}

// errNoPrimary is forward's error for a shard whose primary is unknown.
var errNoPrimary = errors.New("no known primary")

// forward sends one request to a shard and returns the shard's answer. It
// is the router's only way to a shard: the name-routed proxy, the cluster
// batch and the list and snapshot fan-outs all call it, so they share one
// target policy, one retry rule and one set of per-shard metrics.
//
// The target is the shard's primary or, for a read with follower reads on,
// a round-robin pick over the primary and its caught-up followers. A 503 or
// a transport error is retried once unless the router is draining. After a
// 503 the retry waits out its Retry-After, at most maxRetryAfter, and an
// X-Quickseld-Primary hint re-aims the tracker and takes the retry; any
// other retry goes to the tracker's current primary. Beyond that the
// shard's answer, whatever its status, is the caller's.
//
// The error is non-nil only when there is no answer to pass on: the shard
// has no known primary (errNoPrimary), it stayed unreachable, or its answer
// exceeded server.MaxRequestBytes.
func (rt *Router) forward(r *http.Request, shard string, read bool, method, pathQuery string, body []byte) (res *proxyResult, err error) {
	sm := rt.shards[shard]
	sm.requests.Add(1)
	start := time.Now()
	target, followerRead := rt.pickTarget(shard, read)
	// Check and count the final answer here, whichever return produced it.
	defer func() {
		if err == nil && len(res.body) > server.MaxRequestBytes {
			res, err = nil, fmt.Errorf("answer exceeds %d bytes", server.MaxRequestBytes)
		}
		sm.latency.Observe(time.Since(start))
		switch {
		case err != nil || res.status >= 500:
			sm.errors.Add(1)
		case followerRead:
			rt.followerReads.Add(1)
		}
	}()
	sp := obs.SpanFrom(r.Context())
	sp.Stage("queue") // body read + target pick: time before the wire
	if target == "" {
		return nil, errNoPrimary
	}
	res, err = rt.doOnce(r, target, method, pathQuery, body)
	sp.Stage("proxy")
	if (err == nil && res.status != http.StatusServiceUnavailable) || rt.draining.Load() {
		return res, err
	}
	retry := ""
	if err == nil {
		if hint := res.header.Get(replica.HeaderPrimary); hint != "" && hint != target {
			rt.tracker.AdoptPrimary(shard, hint)
			rt.rerouted.Add(1)
			retry = hint
		}
		if secs, perr := strconv.Atoi(res.header.Get("Retry-After")); perr == nil && secs > 0 {
			select {
			case <-time.After(min(time.Duration(secs)*time.Second, maxRetryAfter)):
			case <-r.Context().Done():
				return res, nil
			}
		}
	}
	if retry == "" {
		// Reads retry against the primary, not another follower: the
		// primary is the one target guaranteed to hold the estimator.
		if retry, _ = rt.tracker.PrimaryURL(shard); retry == "" {
			return res, err
		}
	}
	rt.retried.Add(1)
	followerRead = false
	res, err = rt.doOnce(r, retry, method, pathQuery, body)
	sp.Stage("retry")
	return res, err
}

// doOnce is one buffered exchange with a node. The body is a byte slice,
// not the client's reader, so a retry can resend it.
func (rt *Router) doOnce(r *http.Request, target, method, pathQuery string, body []byte) (*proxyResult, error) {
	req, err := http.NewRequestWithContext(r.Context(), method, target+pathQuery, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	id := r.Header.Get("X-Request-Id")
	sp := obs.SpanFrom(r.Context())
	req.Header.Set("X-Request-Id", id)
	// Always send trace context, even sampled-out (sp == nil): the flag
	// tells the shard the cluster-wide fate, so it neither re-samples
	// locally nor echoes a span nobody will stitch.
	req.Header.Set(obs.HeaderTraceParent, obs.FormatTraceParent(id, sp.SpanID(), sp != nil))
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// One byte past the bound is enough for forward to reject the answer.
	b, err := io.ReadAll(io.LimitReader(resp.Body, server.MaxRequestBytes+1))
	if err != nil {
		return nil, err
	}
	traceChild(sp, resp)
	return &proxyResult{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// traceChild attaches the shard's echoed completed span to the router's
// root span. The echo travels as an HTTP trailer (the shard's span only
// completes after its body), readable once the body is drained.
func traceChild(sp *obs.Span, resp *http.Response) {
	if sp == nil {
		return
	}
	if t, ok := obs.DecodeTraceHeader(resp.Trailer.Get(obs.HeaderTrace)); ok {
		sp.AddChild(t)
	}
}

// pickTarget selects the upstream for one request: the shard primary for
// writes, or — when follower reads are on — a round-robin pick over the
// primary and the caught-up healthy followers. The second return reports
// whether the pick is a follower.
func (rt *Router) pickTarget(shard string, read bool) (string, bool) {
	if read && rt.readFromFollowers {
		targets := rt.tracker.ReadTargets(shard)
		if len(targets) > 1 {
			i := int(rt.rrSeq.Add(1)) % len(targets)
			return targets[i], i != 0 // index 0 is always the primary
		}
		if len(targets) == 1 {
			return targets[0], false
		}
	}
	url, _ := rt.tracker.PrimaryURL(shard)
	return url, false
}

// noAnswer answers for a shard forward got no answer from: 503 with
// Retry-After while the shard has no known primary, as a booting node
// answers, and 502 otherwise.
func (rt *Router) noAnswer(w http.ResponseWriter, shard string, err error) {
	if errors.Is(err, errNoPrimary) {
		w.Header().Set("Retry-After", "1")
		rt.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: fmt.Sprintf("shard %s has no known primary", shard)})
		return
	}
	rt.writeJSON(w, http.StatusBadGateway, errorBody{Error: fmt.Sprintf("shard %s: %v", shard, err)})
}

// ---- handlers ----

// byName routes endpoints whose owning shard is determined by the {name}
// path segment.
func (rt *Router) byName(read bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		if r.Method != http.MethodGet {
			b, err := io.ReadAll(r.Body)
			if err != nil {
				// MaxBytesReader trips here; mirror the shard's 413 semantics.
				rt.writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "request body too large"})
				return
			}
			body = b
		}
		rt.proxy(w, r, rt.tracker.Owner(r.PathValue("name")), read, body)
	}
}

// handleCreate peeks the estimator name out of the create body to find the
// owning shard, then forwards the body verbatim.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "request body too large"})
		return
	}
	var peek struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &peek); err != nil || peek.Name == "" {
		rt.writeJSON(w, http.StatusBadRequest, errorBody{Error: "create body needs a name field"})
		return
	}
	rt.proxy(w, r, rt.tracker.Owner(peek.Name), false, body)
}

// proxy forwards the request to shard and copies the shard's status, body
// and the headers a client acts on back to the client.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, shard string, read bool, body []byte) {
	res, err := rt.forward(r, shard, read, r.Method, r.URL.RequestURI(), body)
	if err != nil {
		rt.noAnswer(w, shard, err)
		return
	}
	for _, k := range []string{"Content-Type", "Retry-After", replica.HeaderPrimary} {
		if v := res.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// leg is one request of a fan-out and forward's outcome for it.
type leg struct {
	shard     string
	pathQuery string
	read      bool
	body      []byte
	res       *proxyResult
	err       error
}

// everyPrimary is one leg per shard, all to the same primary endpoint.
func (rt *Router) everyPrimary(pathQuery string) []leg {
	shards := rt.tracker.Ring().Shards()
	legs := make([]leg, len(shards))
	for i, shard := range shards {
		legs[i] = leg{shard: shard, pathQuery: pathQuery}
	}
	return legs
}

// fanout forwards every leg concurrently and reports whether all of them
// got a 200. When one did not, the client has its answer: the router's own
// 503 or 502 when the shard gave none, else the shard's status with its
// error text prefixed by the shard and path, since one client request
// spans many shards.
func (rt *Router) fanout(w http.ResponseWriter, r *http.Request, method string, legs []leg) bool {
	var wg sync.WaitGroup
	for i := range legs {
		wg.Add(1)
		go func(l *leg) {
			defer wg.Done()
			l.res, l.err = rt.forward(r, l.shard, l.read, method, l.pathQuery, l.body)
		}(&legs[i])
	}
	wg.Wait()
	for _, l := range legs {
		if l.err != nil {
			rt.noAnswer(w, l.shard, l.err)
			return false
		}
		if l.res.status != http.StatusOK {
			var e errorBody
			if json.Unmarshal(l.res.body, &e) != nil || e.Error == "" {
				e.Error = truncate(l.res.body)
			}
			rt.writeJSON(w, l.res.status, errorBody{Error: fmt.Sprintf("shard %s %s: %s", l.shard, l.pathQuery, e.Error)})
			return false
		}
	}
	return true
}

// handleList fans GET /v1/estimators out to every shard's primary and
// merges the estimator arrays, sorted by name for a stable view.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	legs := rt.everyPrimary("/v1/estimators")
	if !rt.fanout(w, r, http.MethodGet, legs) {
		return
	}
	merged := make([]json.RawMessage, 0, 16)
	for _, l := range legs {
		var body struct {
			Estimators []json.RawMessage `json:"estimators"`
		}
		if err := json.Unmarshal(l.res.body, &body); err != nil {
			rt.writeJSON(w, http.StatusBadGateway, errorBody{Error: fmt.Sprintf("shard %s: unreadable list: %v", l.shard, err)})
			return
		}
		merged = append(merged, body.Estimators...)
	}
	sort.Slice(merged, func(i, j int) bool {
		return estimatorName(merged[i]) < estimatorName(merged[j])
	})
	rt.writeJSON(w, http.StatusOK, map[string]any{"estimators": merged})
}

func estimatorName(raw json.RawMessage) string {
	var e struct {
		Name string `json:"name"`
	}
	_ = json.Unmarshal(raw, &e)
	return e.Name
}

func truncate(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// clusterBatchRequest is the router-level POST /v1/estimate/batch body:
// estimates spanning many estimators — and thus many shards — in one call.
type clusterBatchRequest struct {
	Queries []clusterBatchQuery `json:"queries"`
}

type clusterBatchQuery struct {
	Estimator string `json:"estimator"`
	Where     string `json:"where"`
}

// handleClusterBatch splits a multi-estimator batch by ring owner, fans the
// per-estimator sub-batches out to their shards concurrently (read policy,
// so follower balancing applies), and merges the selectivities back into
// input order.
func (rt *Router) handleClusterBatch(w http.ResponseWriter, r *http.Request) {
	var req clusterBatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		rt.writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decode request: %v", err)})
		return
	}
	if len(req.Queries) == 0 {
		rt.writeJSON(w, http.StatusBadRequest, errorBody{Error: "request needs a non-empty queries array"})
		return
	}
	if len(req.Queries) > server.MaxEstimateBatch {
		rt.writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf(
			"batch of %d exceeds the %d-query limit; split the request", len(req.Queries), server.MaxEstimateBatch)})
		return
	}
	for i, q := range req.Queries {
		if q.Estimator == "" || q.Where == "" {
			rt.writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf(
				"query %d: estimator and where are both required", i)})
			return
		}
	}

	// Group by estimator: each group is one sub-batch to the owning shard's
	// per-estimator batch endpoint, with the original indices remembered so
	// the merge restores input order.
	type group struct {
		estimator string
		indices   []int
		wheres    []string
	}
	byEst := make(map[string]*group)
	order := make([]*group, 0, 8)
	for i, q := range req.Queries {
		g := byEst[q.Estimator]
		if g == nil {
			g = &group{estimator: q.Estimator}
			byEst[q.Estimator] = g
			order = append(order, g)
		}
		g.indices = append(g.indices, i)
		g.wheres = append(g.wheres, q.Where)
	}
	legs := make([]leg, len(order))
	for i, g := range order {
		body, _ := json.Marshal(map[string]any{"wheres": g.wheres})
		legs[i] = leg{
			shard:     rt.tracker.Owner(g.estimator),
			pathQuery: "/v1/" + url.PathEscape(g.estimator) + "/estimate/batch",
			read:      true,
			body:      body,
		}
	}
	if !rt.fanout(w, r, http.MethodPost, legs) {
		return
	}
	sels := make([]float64, len(req.Queries))
	for i, g := range order {
		var out struct {
			Selectivities []float64 `json:"selectivities"`
		}
		if err := json.Unmarshal(legs[i].res.body, &out); err != nil || len(out.Selectivities) != len(g.indices) {
			rt.writeJSON(w, http.StatusBadGateway, errorBody{Error: fmt.Sprintf(
				"shard %s: unreadable answer for %d queries of estimator %s", legs[i].shard, len(g.indices), g.estimator)})
			return
		}
		for k, idx := range g.indices {
			sels[idx] = out.Selectivities[k]
		}
	}
	rt.writeJSON(w, http.StatusOK, map[string]any{"selectivities": sels})
}

// handleSnapshotFanout forwards POST /v1/snapshot to every shard's primary;
// all must succeed for a 200.
func (rt *Router) handleSnapshotFanout(w http.ResponseWriter, r *http.Request) {
	if rt.fanout(w, r, http.MethodPost, rt.everyPrimary("/v1/snapshot")) {
		rt.writeJSON(w, http.StatusOK, map[string]string{"status": "saved"})
	}
}

// clusterStatus is the GET /v1/cluster/status body.
type clusterStatus struct {
	RingVersion string                `json:"ring_version"`
	Vnodes      int                   `json:"vnodes"`
	Ready       bool                  `json:"ready"`
	Draining    bool                  `json:"draining"`
	Shards      []cluster.ShardHealth `json:"shards"`
}

func (rt *Router) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	ring := rt.tracker.Ring()
	rt.writeJSON(w, http.StatusOK, clusterStatus{
		// Hex string, not a JSON number: the version is a full 64-bit hash
		// and JSON numbers lose integer precision past 2^53.
		RingVersion: fmt.Sprintf("%016x", ring.Version()),
		Vnodes:      ring.Vnodes(),
		Ready:       rt.tracker.Ready(),
		Draining:    rt.draining.Load(),
		Shards:      rt.tracker.Snapshot(),
	})
}

func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready := rt.tracker.Ready() && !rt.draining.Load()
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	rt.writeJSON(w, code, map[string]any{
		"ready":    ready,
		"draining": rt.draining.Load(),
	})
}

// SetDraining flips the router into drain mode: /readyz answers 503 so load
// balancers stop sending new work, while in-flight and straggler requests
// still proxy normally until the HTTP server's graceful shutdown closes the
// listener.
func (rt *Router) SetDraining() { rt.draining.Store(true) }

// handleMetrics serves the router's Prometheus exposition: the router's own
// counters and per-shard serving series, the cluster-merged
// quickselcluster_* families federated from every node's /v1/telemetry
// (with per-node staleness gauges), and the process build/runtime gauges.
func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var t obs.Telemetry
	t.AddCounter("quickselrouter_requests_total", "Total /v1 requests accepted by the router.", rt.reqTotal.Load())
	t.AddCounter("quickselrouter_request_errors_total", "Requests answered with a 5xx (upstream or router).", rt.reqErrors.Load())
	t.AddCounter("quickselrouter_retried_total", "Second proxy attempts after a 503 or transport error.", rt.retried.Load())
	t.AddCounter("quickselrouter_rerouted_total", "Retries that followed an X-Quickseld-Primary hint to a new primary.", rt.rerouted.Load())
	t.AddCounter("quickselrouter_follower_reads_total", "Estimate requests answered by a caught-up follower.", rt.followerReads.Load())
	ready := 0.0
	if rt.tracker.Ready() {
		ready = 1
	}
	t.AddGauge("quickselrouter_ready", "1 when every shard has a live ready primary.", ready)
	t.AddGauge("quickselrouter_ring_vnodes", "Virtual nodes per shard on the placement ring.", float64(rt.tracker.Ring().Vnodes()))

	// Per-shard serving metrics. Shards in ring order for a stable scrape.
	requests := obs.Family{Name: "quickselrouter_shard_requests_total", Help: "Requests proxied to the shard.", Type: "counter"}
	errs := obs.Family{Name: "quickselrouter_shard_errors_total", Help: "Proxied requests that failed (5xx or unreachable).", Type: "counter"}
	latency := obs.Family{Name: "quickselrouter_shard_request_seconds", Help: "Proxied request latency through the router, per shard.", Type: "histogram"}
	for _, id := range rt.tracker.Ring().Shards() {
		m, labels := rt.shards[id], map[string]string{"shard": id}
		requests.Series = append(requests.Series, obs.NumSeries{Labels: labels, Value: float64(m.requests.Load())})
		errs.Series = append(errs.Series, obs.NumSeries{Labels: labels, Value: float64(m.errors.Load())})
		latency.Hist = append(latency.Hist, obs.HistSeriesFrom(labels, m.latency.Snapshot()))
	}
	t.Families = append(t.Families, requests, errs, latency)
	var b strings.Builder
	t.WritePrometheus(&b)

	// Cluster-merged families federated from the shards' telemetry polls:
	// counters summed, histograms merged bucket-wise per (shard, role),
	// plus the per-node staleness gauges.
	fed := cluster.Federate(rt.tracker.Telemetry(), rt.staleAfter, time.Now())
	fed.WritePrometheus(&b)
	obs.WriteRuntimeMetrics(&b, "quickselrouter")

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, b.String())
}

// handleClusterTelemetry serves the structured federated view: the merged
// cluster-level telemetry plus every node's raw snapshot with provenance,
// for consumers that want more than the flattened Prometheus families.
func (rt *Router) handleClusterTelemetry(w http.ResponseWriter, _ *http.Request) {
	nodes := rt.tracker.Telemetry()
	rt.writeJSON(w, http.StatusOK, map[string]any{
		"version": obs.TelemetryVersion,
		"merged":  cluster.Federate(nodes, rt.staleAfter, time.Now()),
		"nodes":   nodes,
	})
}

// handleDebugRequests dumps the router's completed-trace ring, newest first.
// Traced requests carry the shards' echoed child spans, so each entry is the
// stitched tree: router queue → proxy → node decode → model → encode.
func (rt *Router) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	rt.writeJSON(w, http.StatusOK, map[string]any{"traces": rt.ring.Traces()})
}
