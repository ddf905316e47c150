package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quicksel"
	"quicksel/internal/core"
	"quicksel/internal/geom"
	"quicksel/internal/lifecycle"
	"quicksel/internal/obs"
	"quicksel/internal/predicate"
	"quicksel/internal/server"
	"quicksel/internal/wal"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span of the calling layer. The benchmark cannot put spans
// inside the program, so a child is the same call made on the same input
// right after its parent, and a layer's self time is its duration minus
// its children's durations.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (tr *tracer) add(layer string, parent, req int64, start, end time.Time) int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := int64(len(tr.spans) + 1)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Req: req, Layer: layer,
		Start: start.Sub(tr.t0).Nanoseconds(), End: end.Sub(tr.t0).Nanoseconds()})
	return id
}

// time runs fn as one span of layer.
func (tr *tracer) time(layer string, parent, req int64, fn func()) int64 {
	start := time.Now()
	fn()
	return tr.add(layer, parent, req, start, time.Now())
}

// durs returns the durations of the layer's spans in microseconds; with
// self set, each minus the durations of its children.
func (tr *tracer) durs(layer string, self bool) []float64 {
	child := map[int64]int64{}
	if self {
		for _, s := range tr.spans {
			if s.Parent != 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
	}
	var out []float64
	for _, s := range tr.spans {
		if s.Layer == layer {
			out = append(out, float64(s.End-s.Start-child[s.ID])/1e3)
		}
	}
	return out
}

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replicaConfig is the server configuration quickseld builds from the
// flags the end-to-end run gives it (see daemonArgs). sample is the trace
// sampling rate: 1 is the daemon default, -1 turns tracing off.
func replicaConfig(walDir, snapshot string, sample float64) server.Config {
	return server.Config{
		SnapshotPath:   snapshot,
		TrainInterval:  time.Hour,
		BufferSize:     server.DefaultBufferSize,
		Lifecycle:      lifecycle.Config{DriftThreshold: -1, Window: lifecycle.DefaultWindow, History: lifecycle.DefaultHistory},
		WALDir:         walDir,
		WALSync:        string(wal.SyncInterval),
		WALSegmentSize: wal.DefaultSegmentSize,
		Logger:         obs.Discard(),
		TraceRingSize:  server.DefaultTraceRingSize,
		SlowRequest:    server.DefaultSlowRequest,
		TraceSample:    sample,
	}
}

// traceRun carries the state of one traced replay.
type traceRun struct {
	w    *workloadDef
	in   *inputs
	o    options
	t    *tally
	tr   *tracer
	dir  string
	ctls []*control
	req  atomic.Int64
}

// runTraced replays the workload's inputs against an in-process replica
// and reports the per-layer split. End-to-end numbers never come from it.
func runTraced(w *workloadDef, in *inputs, o options) (*report, error) {
	dir := filepath.Join(o.work, fmt.Sprintf("trace-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &traceRun{w: w, in: in, o: o, t: &tally{}, tr: &tracer{t0: time.Now()}, dir: dir}
	rep, err := r.run()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
	if err := r.tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return rep, nil
}

func (r *traceRun) run() (*report, error) {
	in, t, tr := r.in, r.t, r.tr
	walDir := ""
	if r.w.wal {
		walDir = filepath.Join(r.dir, "wal")
	}
	snapPath := filepath.Join(r.dir, "replica.json")
	a, err := server.New(replicaConfig(walDir, snapPath, 1))
	if err != nil {
		return nil, err
	}
	aClosed := false
	defer func() {
		if !aClosed {
			a.Close()
		}
	}()
	reg := a.Registry()

	// Set-up: the same creates, feedback and train point as the daemon's.
	for i, spec := range in.Ests {
		if err := reg.Create(spec.Name, spec.Schema, spec.options()...); err != nil {
			return nil, err
		}
		c, err := newControl(spec)
		if err != nil {
			return nil, err
		}
		r.ctls = append(r.ctls, c)
		layer := "registry.observe"
		if in.Writer != nil {
			layer = "registry.observe.setup"
		}
		for _, o := range spec.Feedback {
			tr.time(layer, 0, 0, func() {
				_, _, err = reg.ObserveBatch(spec.Name, []server.Observation{{Where: o.Where, Sel: o.Sel}})
			})
			if err != nil {
				return nil, err
			}
			c.observe(o)
		}
		if err := r.trainPoint(reg, i); err != nil {
			return nil, err
		}
	}

	var batches []seqRange
	if in.Writer != nil {
		if batches, err = r.replayWriter(reg); err != nil {
			return nil, err
		}
	}
	fsyncs, err := counter(a, "quickseld_wal_fsyncs_total")
	if err != nil {
		return nil, err
	}
	var full, incr uint64
	for _, info := range reg.List() {
		full += info.TrainRunsFull
		incr += info.TrainRunsIncr
	}

	// Replica B serves the same models with tracing off, for obs.trace_us.
	if err := reg.SaveSnapshot(); err != nil {
		return nil, err
	}
	bSnap := filepath.Join(r.dir, "replica-untraced.json")
	if err := copyFile(snapPath, bSnap); err != nil {
		return nil, err
	}
	b, err := server.New(replicaConfig("", bSnap, -1))
	if err != nil {
		return nil, err
	}
	defer b.Close()

	models := make([]*core.Model, len(in.Ests))
	for i, c := range r.ctls {
		if models[i], err = core.Restore(c.est.Snapshot().Model); err != nil {
			return nil, err
		}
	}
	want, err := readAnswers(in, r.ctls)
	if err != nil {
		return nil, err
	}

	secs := time.Duration(r.o.seconds) * time.Second
	loop, decomp := secs*3/10, secs*7/10
	if r.w.sharded {
		decomp = secs / 2
	}
	clientP50, err := r.loopback(a, want, loop)
	if err != nil {
		return nil, err
	}
	if err := r.decompose(a, b, models, want, decomp); err != nil {
		return nil, err
	}
	hop, retries := 0.0, 0.0
	if r.w.sharded {
		if hop, retries, err = r.routerHop(want, secs/5); err != nil {
			return nil, err
		}
	}
	coreTrain, err := r.coreTrain()
	if err != nil {
		return nil, err
	}

	aClosed = true
	if err := a.Close(); err != nil {
		return nil, err
	}
	commit, bytesPerObs := 0.0, 0.0
	if in.Writer != nil {
		if commit, bytesPerObs, err = r.walCommit(walDir, batches); err != nil {
			return nil, err
		}
	}

	handler := median(tr.durs("server.handler", false))
	single := median(tr.durs("registry.estimate", false))
	batch := median(tr.durs("registry.batch", false))
	coreEst := median(tr.durs("core.estimate", false))
	clausesPerRead := float64(len(in.Reads[0].Wheres))
	ms := func(layer string) float64 { return median(tr.durs(layer, false)) / 1e3 }
	rep := &report{t: t, conns: r.w.callers}
	rep.metrics = []metric{
		{"unattributed_us", "us", median(tr.durs("client", true)), "client latency minus ServeHTTP time of the same request, loopback to the in-process replica"},
		{"server.handler_us", "us", handler, "Server.ServeHTTP through httptest, per request"},
		{"server.codec_us", "us", median(tr.durs("server.handler", true)), "handler minus its Registry call, per request"},
		{"obs.trace_us", "us", handler - median(tr.durs("server.handler.untraced", false)), "handler with TraceSample 1 minus handler with tracing off"},
		{"registry.estimate_us", "us", single, "Registry.Estimate, per clause"},
		{"registry.batch_us", "us", batch, fmt.Sprintf("Registry.EstimateBatch of %d clauses, per request", cmpGroup)},
		{"registry.batch_clause_us", "us", batch / cmpGroup, "Registry.EstimateBatch per clause, same clauses as registry.estimate_us"},
		{"registry.batch_vs_single", "ratio", batch / cmpGroup / single, "batch per-clause time over single time on equal inputs"},
		{"predicate.parse_us", "us", median(tr.durs("predicate.parse", false)), "predicate.Parse, per clause"},
		{"predicate.lower_us", "us", median(tr.durs("predicate.lower", false)), "Predicate.Boxes, per clause"},
		{"core.estimate_us", "us", coreEst, "core.Model.EstimateUnion on the lowered boxes, per clause"},
		{"core.read_share_pct", "%", 100 * coreEst * clausesPerRead / clientP50, "core time of one read over traced.read_p50_us"},
		{"core.train_ms", "ms", coreTrain, "full solve of the set-up model, median of repeats"},
		{"registry.observe_us", "us", median(tr.durs("registry.observe", false)), "Registry.ObserveBatch, per request (writer batches with the WAL on in ingest-mixed)"},
		{"wal.commit_us", "us", commit, "wal.Log Enqueue to durable, per writer batch, same records"},
		{"wal.bytes_per_obs", "B", bytesPerObs, "framed log bytes per acknowledged observation"},
		{"wal.fsyncs", "count", fsyncs, "fsync calls on the replica's log"},
		{"registry.train_ms", "ms", ms("registry.train"), "Registry.Train at each train point"},
		{"registry.train_full", "count", float64(full), "train runs that refit from scratch"},
		{"registry.train_incremental", "count", float64(incr), "train runs that re-solved from warm state"},
		{"lifecycle.version_encode_ms", "ms", ms("lifecycle.version_encode"), "json.Marshal(Snapshot()) of the trained model, per train point"},
		{"router.hop_us", "us", hop, "routed minus direct latency, interleaved on the same shards"},
		{"router.retries", "count", retries, "quickselrouter_retried_total"},
		{"traced.read_p50_us", "us", clientP50, "read latency of the traced replay"},
	}
	return rep, nil
}

// trainPoint trains estimator i on the replica and its control, timing the
// registry call and the version encode every retrain runs.
func (r *traceRun) trainPoint(reg *server.Registry, i int) error {
	name := r.in.Ests[i].Name
	var err error
	r.tr.time("registry.train", 0, 0, func() { err = reg.Train(name) })
	if err != nil {
		return err
	}
	c := r.ctls[i]
	if err := c.train(); err != nil {
		return err
	}
	r.tr.time("lifecycle.version_encode", 0, 0, func() { _, err = json.Marshal(c.est.Snapshot()) })
	if err != nil {
		return err
	}
	return r.checkScoring(reg, i)
}

func (r *traceRun) checkScoring(reg *server.Registry, i int) error {
	spec := r.in.Ests[i]
	ws := make([]string, len(spec.Scoring))
	for k, s := range spec.Scoring {
		ws[k] = s.Where
	}
	got, err := reg.EstimateBatch(spec.Name, ws)
	if err != nil {
		r.t.fail("score %s: %v", spec.Name, err)
		return nil
	}
	want, err := r.ctls[i].answers(ws)
	if err != nil {
		return err
	}
	if err := checkRead(got, want, len(want)); err != nil {
		r.t.fail("score %s: %v", spec.Name, err)
	} else {
		r.t.ok()
	}
	return nil
}

// seqRange is the log sequence range [first, end) one writer batch got.
type seqRange struct{ first, end uint64 }

// replayWriter sends the writer's batches and train points to the replica
// back to back, in schedule order.
func (r *traceRun) replayWriter(reg *server.Registry) ([]seqRange, error) {
	plan := r.in.Writer
	name := r.in.Ests[plan.Est].Name
	var out []seqRange
	for cyc := 0; cyc < plan.cycles(); cyc++ {
		for b := 0; b < plan.PerCycle; b++ {
			batch := plan.Batches[cyc*plan.PerCycle+b]
			recs := make([]server.Observation, len(batch))
			for i, o := range batch {
				recs[i] = server.Observation{Where: o.Where, Sel: o.Sel}
			}
			first := reg.ReplicationResume()
			var err error
			var accepted int
			r.tr.time("registry.observe", 0, 0, func() { _, accepted, err = reg.ObserveBatch(name, recs) })
			if err != nil || accepted != len(recs) {
				return nil, fmt.Errorf("observe %s: accepted %d of %d: %v", name, accepted, len(recs), err)
			}
			r.t.ok()
			out = append(out, seqRange{first, reg.ReplicationResume()})
			r.ctls[plan.Est].observe(batch...)
		}
		if err := r.trainPoint(reg, plan.Est); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// loopback serves replica a over a real loopback listener and drives the
// read pool from the workload's callers, recording each request as a
// client span with the server's ServeHTTP span as its child. It returns
// the median client latency.
func (r *traceRun) loopback(a *server.Server, want [][]float64, dur time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	type handled struct {
		req        int64
		start, end time.Time
	}
	var mu sync.Mutex
	var spans []handled
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		start := time.Now()
		a.ServeHTTP(w, q)
		end := time.Now()
		id, _ := strconv.ParseInt(q.Header.Get("X-Bench-Req"), 10, 64)
		mu.Lock()
		spans = append(spans, handled{id, start, end})
		mu.Unlock()
	})}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	reqs := prepareReads(r.in)
	base := "http://" + ln.Addr().String()
	clientSpans := map[int64]int64{}
	var csMu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for ci := 0; ci < r.w.callers; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			for k := ci * len(reqs) / r.w.callers; time.Now().Before(deadline); k++ {
				i := k % len(reqs)
				id := r.req.Add(1)
				q, err := http.NewRequest(reqs[i].method, base+reqs[i].path, bytes.NewReader(reqs[i].body))
				if err != nil {
					r.t.fail("read: %v", err)
					return
				}
				q.Header.Set("X-Bench-Req", strconv.FormatInt(id, 10))
				start := time.Now()
				resp, err := c.hc.Do(q)
				var body []byte
				if err == nil {
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				end := time.Now()
				sid := r.tr.add("client", 0, id, start, end)
				csMu.Lock()
				clientSpans[id] = sid
				csMu.Unlock()
				r.checkAnswer(err, resp, body, want[i], len(r.in.Reads[i].Wheres))
			}
		}(ci)
	}
	wg.Wait()
	if err := hs.Close(); err != nil {
		return 0, err
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return 0, err
	}
	for _, h := range spans {
		r.tr.add("server.handler.loopback", clientSpans[h.req], h.req, h.start, h.end)
	}
	return median(r.tr.durs("client", false)), nil
}

func (r *traceRun) checkAnswer(err error, resp *http.Response, body []byte, want []float64, n int) {
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err == nil {
		var got []float64
		if got, err = decodeReadAnswer(r.in.Batch, body); err == nil {
			err = checkRead(got, want, n)
		}
	}
	if err != nil {
		r.t.fail("read: %v", err)
		return
	}
	r.t.ok()
}

// cmpGroup is the batch size of the single-versus-batch comparison, the
// batch-wide request size.
const cmpGroup = 64

// decompose times, one request at a time, each layer a read passes
// through: the handler with tracing on and off, the request's Registry
// call, and per clause the parse, the lowering and the kernel. Every 64
// clauses it also times Registry.Estimate on each clause against one
// Registry.EstimateBatch of all of them, on the same model.
func (r *traceRun) decompose(a, b *server.Server, models []*core.Model, want [][]float64, dur time.Duration) error {
	in, tr := r.in, r.tr
	reqs := prepareReads(in)
	reg := a.Registry()
	groups := make([][]string, len(in.Ests)) // per estimator, clauses awaiting a comparison
	deadline := time.Now().Add(dur)
	for k := 0; time.Now().Before(deadline); k++ {
		i := k % len(reqs)
		rd := in.Reads[i]
		spec := in.Ests[rd.Est]
		id := r.req.Add(1)
		rec := httptest.NewRecorder()
		hq := httptest.NewRequest(reqs[i].method, reqs[i].path, bytes.NewReader(reqs[i].body))
		hid := tr.time("server.handler", 0, id, func() { a.ServeHTTP(rec, hq) })
		resp := rec.Result()
		r.checkAnswer(nil, resp, rec.Body.Bytes(), want[i], len(rd.Wheres))
		recB := httptest.NewRecorder()
		hqB := httptest.NewRequest(reqs[i].method, reqs[i].path, bytes.NewReader(reqs[i].body))
		tr.time("server.handler.untraced", 0, id, func() { b.ServeHTTP(recB, hqB) })
		r.checkAnswer(nil, recB.Result(), recB.Body.Bytes(), want[i], len(rd.Wheres))

		var err error
		rid := tr.time("registry", hid, id, func() {
			if in.Batch {
				_, err = reg.EstimateBatch(spec.Name, rd.Wheres)
			} else {
				_, err = reg.Estimate(spec.Name, rd.Wheres[0])
			}
		})
		if err != nil {
			return err
		}
		for c, where := range rd.Wheres {
			var p *predicate.Predicate
			var boxes []geom.Box
			var got float64
			tr.time("predicate.parse", rid, id, func() { p, err = predicate.Parse(spec.Schema, where) })
			if err == nil {
				tr.time("predicate.lower", rid, id, func() { boxes, err = p.Boxes(spec.Schema) })
			}
			if err == nil {
				tr.time("core.estimate", rid, id, func() { got, err = models[rd.Est].EstimateUnion(boxes) })
			}
			if err != nil {
				return err
			}
			if got != want[i][c] {
				r.t.fail("core estimate of %q: %v, control %v", where, got, want[i][c])
			}
		}

		groups[rd.Est] = append(groups[rd.Est], rd.Wheres...)
		if g := groups[rd.Est]; len(g) >= cmpGroup {
			if err := r.compare(reg, spec.Name, g[:cmpGroup]); err != nil {
				return err
			}
			groups[rd.Est] = g[:0]
		}
	}
	return nil
}

func (r *traceRun) compare(reg *server.Registry, name string, clauses []string) error {
	id := r.req.Add(1)
	var err error
	r.tr.time("registry.batch", 0, id, func() { _, err = reg.EstimateBatch(name, clauses) })
	if err != nil {
		return err
	}
	for _, w := range clauses {
		r.tr.time("registry.estimate", 0, id, func() { _, err = reg.Estimate(name, w) })
		if err != nil {
			return err
		}
	}
	return nil
}

// routerHop runs the router-point topology with in-process shards: two
// replicas on loopback listeners behind a real quickselrouter process,
// set up through the router. Identical reads then alternate between the
// router and the owning shard; the hop is the difference of the medians.
func (r *traceRun) routerHop(want [][]float64, dur time.Duration) (hop, retries float64, err error) {
	var bases []string
	var srvs []*server.Server
	var https []*http.Server
	defer func() {
		for _, h := range https {
			h.Close()
		}
		for _, s := range srvs {
			s.Close()
		}
	}()
	for i := 0; i < 2; i++ {
		s, err := server.New(replicaConfig("", "", 1))
		if err != nil {
			return 0, 0, err
		}
		srvs = append(srvs, s)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, 0, err
		}
		h := &http.Server{Handler: s}
		https = append(https, h)
		go h.Serve(ln)
		bases = append(bases, "http://"+ln.Addr().String())
	}
	router, err := startProc("quickselrouter", filepath.Join(r.o.bin, "quickselrouter"), routerArgs(bases), r.w.daemonProcs())
	if err != nil {
		return 0, 0, err
	}
	defer router.stop()
	if err := waitReady(router.base, 60*time.Second); err != nil {
		return 0, 0, err
	}
	rc := newClient(router.base)
	defer rc.close()
	// The shards get the replica's set-up, so the controls at their set-up
	// state check both paths.
	busy := newClient(router.base)
	defer busy.close()
	_, _, points := setUp(rc, busy, r.in, prepareReads(r.in), r.t)
	if _, err := verify(r.in, r.ctls, points, func(int) error { return nil }, r.t); err != nil {
		return 0, 0, err
	}
	owner := map[string]*client{}
	for i, s := range srvs {
		c := newClient(bases[i])
		defer c.close()
		for _, info := range s.Registry().List() {
			owner[info.Name] = c
		}
	}
	if len(owner) != len(r.in.Ests) {
		return 0, 0, fmt.Errorf("shards hold %d of %d estimators", len(owner), len(r.in.Ests))
	}
	reqs := prepareReads(r.in)
	var routed, direct []float64
	deadline := time.Now().Add(dur)
	for k := 0; time.Now().Before(deadline); k++ {
		i := k % len(reqs)
		id := r.req.Add(1)
		targets := []*client{rc, owner[r.in.Ests[r.in.Reads[i].Est].Name]}
		if k%2 == 1 {
			targets[0], targets[1] = targets[1], targets[0]
		}
		for _, c := range targets {
			start := time.Now()
			status, body, err := c.do(reqs[i].method, reqs[i].path, reqs[i].body)
			end := time.Now()
			layer := "direct"
			if c == rc {
				layer = "routed"
			}
			r.tr.add(layer, 0, id, start, end)
			us := float64(end.Sub(start).Nanoseconds()) / 1e3
			if layer == "routed" {
				routed = append(routed, us)
			} else {
				direct = append(direct, us)
			}
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
			}
			var got []float64
			if err == nil {
				got, err = decodeReadAnswer(r.in.Batch, body)
			}
			if err == nil {
				err = checkRead(got, want[i], len(want[i]))
			}
			if err != nil {
				r.t.fail("%s read: %v", layer, err)
			} else {
				r.t.ok()
			}
		}
	}
	retries, err = counterAt(rc, "quickselrouter_retried_total")
	if err != nil {
		return 0, 0, err
	}
	return median(routed) - median(direct), retries, nil
}

// coreTrain times a full solve of each estimator's set-up model directly on
// core.Model, restored from the untrained state the set-up feedback builds.
// It repeats while the repeats take under a fifth of the run.
func (r *traceRun) coreTrain() (float64, error) {
	var untrained []*core.Snapshot
	for _, spec := range r.in.Ests {
		est, err := quicksel.New(spec.Schema, spec.options()...)
		if err != nil {
			return 0, err
		}
		for _, o := range spec.Feedback {
			if err := est.ObserveWhere(o.Where, o.Sel); err != nil {
				return 0, err
			}
		}
		untrained = append(untrained, est.Snapshot().Model)
	}
	budget := time.Duration(r.o.seconds) * time.Second / 5
	start := time.Now()
	for rep := 0; rep < 3 && (rep == 0 || time.Since(start) < budget); rep++ {
		for _, s := range untrained {
			m, err := core.Restore(s)
			if err != nil {
				return 0, err
			}
			r.tr.time("core.train", 0, 0, func() { err = m.Train() })
			if err != nil {
				return 0, err
			}
		}
	}
	return median(r.tr.durs("core.train", false)) / 1e3, nil
}

// walCommit re-appends the replica's writer batches, record for record,
// to a fresh log with the daemon's policy and times Enqueue to durable for
// each batch. It also returns the framed bytes per observation.
func (r *traceRun) walCommit(dir string, batches []seqRange) (commitUs, bytesPerObs float64, err error) {
	src, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return 0, 0, err
	}
	recs := map[uint64]wal.Record{}
	err = src.Replay(batches[0].first, func(rec wal.Record) error {
		rec.Payload = append([]byte(nil), rec.Payload...)
		recs[rec.Seq] = rec
		return nil
	})
	if cerr := src.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, err
	}
	dst, err := wal.Open(filepath.Join(r.dir, "wal-commit"), wal.Options{Sync: wal.SyncInterval})
	if err != nil {
		return 0, 0, err
	}
	defer dst.Close()
	var frameBytes, obsCount int
	for _, b := range batches {
		var batch []wal.Record
		for s := b.first; s < b.end; s++ {
			rec, ok := recs[s]
			if !ok {
				return 0, 0, fmt.Errorf("log record %d missing", s)
			}
			frameBytes += len(wal.EncodeFrame(nil, rec))
			batch = append(batch, wal.Record{Type: rec.Type, Payload: rec.Payload})
		}
		obsCount += len(batch)
		var werr error
		r.tr.time("wal.commit", 0, 0, func() {
			_, _, wait := dst.Enqueue(batch)
			werr = wait()
		})
		if werr != nil {
			return 0, 0, werr
		}
	}
	return median(r.tr.durs("wal.commit", false)), float64(frameBytes) / float64(obsCount), nil
}

// counter reads one unlabelled counter from a server's /metrics.
func counter(s *server.Server, name string) (float64, error) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return findCounter(rec.Body.String(), name)
}

func counterAt(c *client, name string) (float64, error) {
	status, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	return findCounter(string(body), name)
}

// findCounter returns the value of an unlabelled series; a family the
// exposition does not carry (a log-less daemon has no WAL families) is 0.
func findCounter(text, name string) (float64, error) {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, nil
}

func copyFile(from, to string) error {
	data, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, data, 0o644)
}
