package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"

	"quicksel"
	"quicksel/internal/obs"
	"quicksel/internal/replica"
)

// Server is the HTTP facade over a Registry. Build one with New, mount it
// (it implements http.Handler), and Close it on shutdown.
type Server struct {
	reg *Registry
	mux *http.ServeMux

	// Request counters, exposed on /metrics: served[i] counts the requests
	// routes[i] (the table New builds) served; reqRoleRejected and
	// reqErrors span routes.
	routes          []route
	served          []atomic.Uint64
	reqRoleRejected atomic.Uint64
	reqErrors       atomic.Uint64
}

// route is one row of the counted route table: a mux pattern, the
// /metrics counter of the requests it served with that counter's help
// text, and the handler.
type route struct {
	pattern, counter, help string
	handle                 http.HandlerFunc
}

// MaxRequestBytes caps one /v1 JSON request body. Larger bodies get 413:
// an unbounded decode would let a single client balloon the daemon's heap.
// The cap comfortably fits the biggest legitimate requests (a
// MaxEstimateBatch-clause batch, an observe batch filling the pending
// buffer) with an order of magnitude to spare.
const MaxRequestBytes = 8 << 20

// New builds the server and its registry.
func New(cfg Config) (*Server, error) {
	reg, err := NewRegistry(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{reg: reg, mux: http.NewServeMux()}
	// Rows are in /metrics exposition order.
	s.routes = []route{
		{"POST /v1/estimators", "quickseld_requests_create_total", "POST /v1/estimators requests served.", s.handleCreate},
		{"POST /v1/{name}/observe", "quickseld_requests_observe_total", "Observe requests served.", s.handleObserve},
		{"GET /v1/{name}/estimate", "quickseld_requests_estimate_total", "Estimate requests served.", s.handleEstimate},
		{"POST /v1/{name}/estimate/batch", "quickseld_requests_estimate_batch_total", "Batch estimate requests served.", s.handleEstimateBatch},
		{"POST /v1/{name}/train", "quickseld_requests_train_total", "Explicit train requests served.", s.handleTrain},
		{"GET /v1/estimators", "quickseld_requests_list_total", "List requests served.", s.handleList},
		{"DELETE /v1/estimators/{name}", "quickseld_requests_drop_total", "Drop requests served.", s.handleDrop},
		{"POST /v1/snapshot", "quickseld_requests_snapshot_total", "Explicit snapshot requests served.", s.handleSnapshot},
		{"GET /v1/{name}/versions", "quickseld_requests_versions_total", "Version-listing requests served.", s.handleVersions},
		{"POST /v1/{name}/rollback", "quickseld_requests_rollback_total", "Rollback requests served.", s.handleRollback},
		{"GET /v1/{name}/accuracy", "quickseld_requests_accuracy_total", "Accuracy requests served.", s.handleAccuracy},
		{"GET /metrics", "quickseld_requests_metrics_total", "Metrics scrapes served.", s.handleMetrics},
		{"GET /v1/telemetry", "quickseld_requests_telemetry_total", "Telemetry snapshot fetches served.", s.handleTelemetry},
		{"GET /v1/replication/wal", "quickseld_requests_replication_wal_total", "WAL fetches served to followers.", s.handleReplicationWAL},
		{"GET /v1/replication/snapshot", "quickseld_requests_replication_snapshot_total", "Snapshot bootstraps served to followers.", s.handleReplicationSnapshot},
		{"POST /v1/replication/promote", "quickseld_requests_replication_promote_total", "Promotion requests served.", s.handlePromote},
		{"GET /v1/replication/status", "quickseld_requests_replication_status_total", "Replication status requests served.", s.handleReplicationStatus},
	}
	s.served = make([]atomic.Uint64, len(s.routes))
	for i, rt := range s.routes {
		s.mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) {
			s.served[i].Add(1)
			rt.handle(w, r)
		})
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	if cfg.Pprof {
		// Opt-in only: profiles expose call stacks and heap contents.
		// pprof.Index serves the named profiles (heap, goroutine, ...)
		// under the trailing-slash pattern.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Registry exposes the underlying registry (for embedding quickseld in a
// larger process).
func (s *Server) Registry() *Registry { return s.reg }

// Close flushes, persists, and stops the background worker.
func (s *Server) Close() error { return s.reg.Close() }

// ServeHTTP implements http.Handler. API requests (/v1/*) are traced: each
// gets a request ID (echoed in X-Request-Id), its handler marks stages
// (decode, model, encode) on the span, and the completed trace lands in
// the ring behind GET /debug/requests plus the threshold-gated slow log.
// Operational endpoints (/metrics, probes, /debug) are served untraced so
// scrapes don't wash real traffic out of the ring.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/v1/") {
		s.mux.ServeHTTP(w, r)
		return
	}
	// Bound every /v1 body before any handler decodes it: an unbounded JSON
	// body would otherwise be read into memory whole. Handlers surface the
	// resulting *http.MaxBytesError as 413 via writeError.
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	}
	if strings.HasPrefix(r.URL.Path, "/v1/replication/") || r.URL.Path == "/v1/telemetry" {
		// Replication traffic (the WAL fetch long-polls at high frequency)
		// and the router's telemetry poll are operational and allowed on
		// any role: served untraced so they do not wash client traffic out
		// of the debug ring.
		s.mux.ServeHTTP(w, r)
		return
	}
	if r.Method != http.MethodGet && !s.reg.IsPrimary() {
		// Followers are read-only: writes go to the primary. 503 +
		// Retry-After (not a redirect) so naive clients fail fast and
		// cluster-aware ones read X-Quickseld-Primary and re-aim.
		s.reqRoleRejected.Add(1)
		s.reqErrors.Add(1)
		w.Header().Set("Retry-After", "1")
		if pu := s.reg.PrimaryURL(); pu != "" {
			w.Header().Set(replica.HeaderPrimary, pu)
		}
		s.writeJSON(w, http.StatusServiceUnavailable,
			errorBody{Error: "this node is a read-only follower; send writes to the primary"})
		return
	}
	// Trace context. An inbound traceparent (quickselrouter's root span)
	// carries the request ID, the router span to parent under, and the
	// cluster-wide sampling decision, which this node obeys so a request is
	// traced on every hop or none. Without one, reuse a propagated
	// X-Request-Id (or mint fresh) and apply the local sampling rate.
	// Sampled-out requests still carry the ID — logs correlate either way —
	// but record no span and never reach the debug ring.
	var id, parentID string
	var sampled, fromUpstream bool
	if tid, pid, smp, ok := obs.ParseTraceParent(r.Header.Get(obs.HeaderTraceParent)); ok {
		id, parentID, sampled, fromUpstream = tid, pid, smp, true
	} else {
		id = obs.AdoptID(r.Header.Get("X-Request-Id"))
		sampled = obs.SampleRequestID(id, s.reg.cfg.TraceSample)
	}
	w.Header().Set("X-Request-Id", id)
	if !sampled {
		s.mux.ServeHTTP(w, r)
		return
	}
	sp := obs.StartSpanWithID("http", r.Method+" "+r.URL.Path, id)
	sp.SetParent(parentID)
	sp.SetNode(s.reg.cfg.NodeID)
	if fromUpstream {
		// Announce the child-trace echo before the handler writes: the span
		// only completes after the body, so it travels as an HTTP trailer
		// (responses are chunked — writeJSON never sets Content-Length).
		w.Header().Add("Trailer", obs.HeaderTrace)
	}
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r.WithContext(obs.WithSpan(r.Context(), sp)))
	code := sw.code
	if code == 0 {
		code = http.StatusOK
	}
	sp.SetStatus(code)
	tr := sp.End()
	if fromUpstream {
		if v, ok := obs.EncodeTraceHeader(tr); ok {
			w.Header().Set(obs.HeaderTrace, v)
		}
	}
	s.reg.ring.Record(tr)
}

// statusWriter captures the response status for the request trace.
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

// handleReadyz answers the readiness probe: 200 once the snapshot is
// restored, the write-ahead log replayed, and the trainer running; 503
// otherwise (including while draining), with the per-component flags in
// the body either way.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	rd := s.reg.Readiness()
	status := http.StatusOK
	if !rd.Ready {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, rd)
}

// handleDebugRequests dumps the completed-trace ring, newest first: request
// IDs, stage timings, statuses — where a slow request spent its time.
func (s *Server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"traces": s.reg.ring.Traces()})
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps registry errors onto HTTP statuses: unknown name → 404,
// duplicate create → 409, an over-limit body → 413, bad input (parse
// errors, schema errors) → 400.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.reqErrors.Add(1)
	status := http.StatusBadRequest
	var nf *NotFoundError
	var cf *ConflictError
	var mb *http.MaxBytesError
	switch {
	case errors.As(err, &nf):
		status = http.StatusNotFound
	case errors.As(err, &cf):
		status = http.StatusConflict
	case errors.As(err, &mb):
		status = http.StatusRequestEntityTooLarge
		err = fmt.Errorf("request body exceeds the %d-byte limit; split the batch", MaxRequestBytes)
	}
	s.writeJSON(w, status, errorBody{Error: err.Error()})
}

// createRequest is the body of POST /v1/estimators. Method selects the
// estimation backend ("quicksel", "sthole", "isomer", "maxent", "sample",
// "scanhist"); empty means quicksel. Unknown method names are rejected with
// a 400 listing the valid ones, and — because the decoder is strict — so
// are misspelled fields.
type createRequest struct {
	Name    string           `json:"name"`
	Method  string           `json:"method,omitempty"`
	Schema  *quicksel.Schema `json:"schema"`
	Options *createOptions   `json:"options,omitempty"`
}

// createOptions tunes the model; zero fields keep the paper defaults.
// The first block applies to the quicksel method, max_buckets to the
// histogram methods (sthole/isomer/maxent), the scan block to the
// scan-backed methods (sample/scanhist), and the lifecycle block to the
// registry's model-lifecycle machinery (any method).
type createOptions struct {
	Seed               *int64  `json:"seed,omitempty"`
	MaxSubpops         int     `json:"max_subpops,omitempty"`
	SubpopsPerQuery    int     `json:"subpops_per_query,omitempty"`
	FixedSubpops       int     `json:"fixed_subpops,omitempty"`
	PointsPerPredicate int     `json:"points_per_predicate,omitempty"`
	Lambda             float64 `json:"lambda,omitempty"`
	IterativeSolver    bool    `json:"iterative_solver,omitempty"`
	Workers            int     `json:"workers,omitempty"`
	WarmStart          bool    `json:"warm_start,omitempty"`
	MaxObservations    int     `json:"max_observations,omitempty"`
	MergeThreshold     float64 `json:"merge_threshold,omitempty"`
	MaxBuckets         int     `json:"max_buckets,omitempty"`
	SampleSize         int     `json:"sample_size,omitempty"`
	GridBuckets        int     `json:"grid_buckets,omitempty"`
	RowsPerObservation int     `json:"rows_per_observation,omitempty"`

	// Lifecycle knobs; zero fields inherit the daemon-wide flags.
	RetrainPolicy  string  `json:"retrain_policy,omitempty"`
	DriftThreshold float64 `json:"drift_threshold,omitempty"`
	AccuracyWindow int     `json:"accuracy_window,omitempty"`
	VersionHistory int     `json:"version_history,omitempty"`
}

func (o *createOptions) toOptions() []quicksel.Option {
	if o == nil {
		return nil
	}
	var opts []quicksel.Option
	if o.Seed != nil {
		opts = append(opts, quicksel.WithSeed(*o.Seed))
	}
	if o.MaxSubpops > 0 {
		opts = append(opts, quicksel.WithMaxSubpopulations(o.MaxSubpops))
	}
	if o.SubpopsPerQuery > 0 {
		opts = append(opts, quicksel.WithSubpopsPerQuery(o.SubpopsPerQuery))
	}
	if o.FixedSubpops > 0 {
		opts = append(opts, quicksel.WithFixedSubpopulations(o.FixedSubpops))
	}
	if o.PointsPerPredicate > 0 {
		opts = append(opts, quicksel.WithPointsPerPredicate(o.PointsPerPredicate))
	}
	if o.Lambda > 0 {
		opts = append(opts, quicksel.WithLambda(o.Lambda))
	}
	if o.IterativeSolver {
		opts = append(opts, quicksel.WithIterativeSolver())
	}
	if o.Workers > 0 {
		opts = append(opts, quicksel.WithWorkers(o.Workers))
	}
	if o.WarmStart {
		opts = append(opts, quicksel.WithWarmStart())
	}
	if o.MaxObservations > 0 {
		opts = append(opts, quicksel.WithMaxObservations(o.MaxObservations))
	}
	if o.MergeThreshold > 0 {
		opts = append(opts, quicksel.WithMergeThreshold(o.MergeThreshold))
	}
	if o.MaxBuckets > 0 {
		opts = append(opts, quicksel.WithMaxBuckets(o.MaxBuckets))
	}
	if o.SampleSize > 0 {
		opts = append(opts, quicksel.WithSampleSize(o.SampleSize))
	}
	if o.GridBuckets > 0 {
		opts = append(opts, quicksel.WithGridBuckets(o.GridBuckets))
	}
	if o.RowsPerObservation > 0 {
		opts = append(opts, quicksel.WithRowsPerObservation(o.RowsPerObservation))
	}
	if o.RetrainPolicy != "" {
		opts = append(opts, quicksel.WithRetrainPolicy(o.RetrainPolicy))
	}
	if o.DriftThreshold != 0 {
		opts = append(opts, quicksel.WithDriftThreshold(o.DriftThreshold))
	}
	if o.AccuracyWindow > 0 {
		opts = append(opts, quicksel.WithAccuracyWindow(o.AccuracyWindow))
	}
	if o.VersionHistory > 0 {
		opts = append(opts, quicksel.WithVersionHistory(o.VersionHistory))
	}
	return opts
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	// Strict decoding: a typo like "metod" or "schmea" used to be silently
	// ignored, leaving the client with a default estimator it did not ask
	// for. Creates are rare and deliberate, so reject unknown fields.
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, fmt.Errorf("decode request: %w", err))
		return
	}
	if req.Schema == nil {
		s.writeError(w, fmt.Errorf("request needs a schema"))
		return
	}
	opts := req.Options.toOptions()
	if req.Method != "" {
		// quicksel.New validates the name; an unknown one fails the create
		// with a 400 whose message lists the valid methods.
		opts = append(opts, quicksel.WithMethod(req.Method))
	}
	if err := s.reg.Create(req.Name, req.Schema, opts...); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, map[string]string{"name": req.Name, "status": "created"})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"estimators": s.reg.List()})
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Drop(r.PathValue("name")); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "dropped"})
}

// observation is one observe record; observeRequest accepts a single record
// or a batch.
type observation struct {
	Where       string   `json:"where"`
	Selectivity *float64 `json:"selectivity"`
}

type observeRequest struct {
	observation
	Observations []observation `json:"observations,omitempty"`
}

// observeResponse reports ingestion backpressure to the client.
type observeResponse struct {
	Accepted int `json:"accepted"`
	Dropped  int `json:"dropped"`
	Backlog  int `json:"backlog"`
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req observeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, fmt.Errorf("decode request: %w", err))
		return
	}
	raw := req.Observations
	if raw == nil {
		raw = []observation{req.observation}
	}
	// The registry validates the whole batch before queueing anything, so a
	// 400 means nothing was ingested and the client can safely retry the
	// corrected batch without double-counting the records before the bad
	// one. A missing selectivity goes in as NaN, which that check refuses.
	batch := make([]Observation, len(raw))
	for i, o := range raw {
		if o.Where == "" {
			s.writeError(w, fmt.Errorf("observation %d: missing where clause", i))
			return
		}
		batch[i] = Observation{Where: o.Where, Sel: nan}
		if o.Selectivity != nil {
			batch[i].Sel = *o.Selectivity
		}
	}
	sp := obs.SpanFrom(r.Context())
	sp.Stage("decode")
	backlog, accepted, err := s.reg.ObserveBatch(name, batch)
	sp.Stage("model")
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := observeResponse{Accepted: accepted, Dropped: len(batch) - accepted, Backlog: backlog}
	status := http.StatusAccepted
	if resp.Accepted == 0 && resp.Dropped > 0 {
		// Buffer full. The worker drains it on its next train tick, so the
		// client backs off briefly and retries.
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, status, resp)
	sp.Stage("encode")
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	where := r.URL.Query().Get("where")
	if where == "" {
		s.writeError(w, fmt.Errorf("missing where query parameter"))
		return
	}
	sp := obs.SpanFrom(r.Context())
	sp.Stage("decode")
	sel, err := s.reg.Estimate(name, where)
	sp.Stage("model")
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"estimator":   name,
		"where":       where,
		"selectivity": sel,
	})
	sp.Stage("encode")
}

// estimateBatchRequest is the body of POST /v1/{name}/estimate/batch.
type estimateBatchRequest struct {
	Wheres []string `json:"wheres"`
}

// MaxEstimateBatch bounds one batch-estimate request. The whole batch is
// answered under a single estimator lock acquisition (that is the point —
// one model generation, amortized locking). Estimates hold that lock
// shared, so readers do not wait for each other, but a writer on the
// estimator (the background trainer's clone and snapshot steps) waits for
// every batch in progress, and each estimate arriving after it waits in
// turn: an unbounded batch would let one client stall them all.
const MaxEstimateBatch = 4096

// handleEstimateBatch serves many estimates in one request, amortizing HTTP
// and JSON overhead, predicate parsing, and estimator lock acquisition
// across the batch. Selectivities are returned in input order.
func (s *Server) handleEstimateBatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req estimateBatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(req.Wheres) == 0 {
		s.writeError(w, fmt.Errorf("request needs a non-empty wheres array"))
		return
	}
	if len(req.Wheres) > MaxEstimateBatch {
		s.writeError(w, fmt.Errorf("batch of %d exceeds the %d-clause limit; split the request", len(req.Wheres), MaxEstimateBatch))
		return
	}
	for i, where := range req.Wheres {
		if where == "" {
			s.writeError(w, fmt.Errorf("estimate %d: empty where clause", i))
			return
		}
	}
	sp := obs.SpanFrom(r.Context())
	sp.Stage("decode")
	sels, err := s.reg.EstimateBatch(name, req.Wheres)
	sp.Stage("model")
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"estimator":     name,
		"selectivities": sels,
	})
	sp.Stage("encode")
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Train(name); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "trained"})
}

// handleVersions lists an estimator's immutable model versions: the serving
// one plus the bounded archive of previous champions and rejected
// challengers, metadata only.
func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.Versions(r.PathValue("name"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, info)
}

// rollbackRequest is the body of POST /v1/{name}/rollback. Version 0 (or an
// empty body) selects the most recently archived version — after a
// promotion, the previous champion.
type rollbackRequest struct {
	Version int `json:"version,omitempty"`
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	var req rollbackRequest
	if r.ContentLength != 0 {
		// Strict, like create: a typo such as "verison" must not silently
		// roll back to the default (most recent) version.
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.writeError(w, fmt.Errorf("decode request: %w", err))
			return
		}
	}
	v, err := s.reg.Rollback(r.PathValue("name"), req.Version)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":  "rolled_back",
		"version": v,
	})
}

// handleAccuracy reports the estimator's realized accuracy window, drift
// state, promotion policy, and serving version.
func (s *Server) handleAccuracy(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.Accuracy(r.PathValue("name"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	if err := s.reg.SaveSnapshot(); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "saved"})
}
