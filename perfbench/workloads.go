package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"quicksel"
	"quicksel/internal/predicate"
	"quicksel/internal/workload"
)

// workloadDef is one traffic mix. why is the one-line reason it exists
// (BENCHMARK.json carries the same text); moves names the layers whose
// changes it should show and bypasses those it should not see, so a
// change's predicted effect can be read off before it is measured.
type workloadDef struct {
	name     string
	why      string
	moves    string
	bypasses string
	// setups is how many times a run sets the cluster up from scratch.
	// Each set-up serves an equal share of the timed phase, and every
	// end-to-end timing is taken over the set-ups (see runE2E). Short
	// set-ups repeat more: process start-up jitter is a larger share of them.
	setups int
	// callers is the number of closed-loop read connections. The
	// ingest-mixed writer is one more connection.
	callers int
	// warmup is the number of untimed reads each caller sends before the
	// clock starts.
	warmup  int
	sharded bool // quickselrouter in front of two quickseld shards
	wal     bool // quickseld runs with -wal-dir
	// procs is the GOMAXPROCS of every started process; 0 means one per
	// CPU, the Go default.
	procs int
	// gen makes a run's inputs; span is one set-up's share of the timed
	// phase.
	gen func(seed int64, span time.Duration) (*inputs, error)
}

var workloads = []*workloadDef{
	{
		name:     "point-small",
		why:      "single GET estimates on a small d=2 model: HTTP, JSON, tracing and parsing dominate, the kernel is ~1% of a request",
		moves:    "net/http, server handler and codec, obs tracing, predicate.Parse",
		bypasses: "core kernel (predicted flat), WAL, router",
		setups:   9,
		callers:  2,
		warmup:   400,
		gen:      genPointSmall,
	},
	{
		name:     "batch-wide",
		why:      "64-clause batches on a d=8 model with 2000 kernels: the compiled kernel scan does most of the work",
		moves:    "core kernel (compiled estimate), batch path; setup_s moves with the train solve",
		bypasses: "HTTP and JSON (diluted), WAL, router",
		setups:   5,
		// One caller: two concurrent batches get one core's worth of kernel
		// throughput on a 2-CPU host, so a second caller would only add
		// waiting for a core to every batch's latency.
		callers: 1,
		warmup:  3,
		gen:     genBatchWide,
	},
	{
		name:     "ingest-mixed",
		why:      "paced observe batches with the WAL on, synchronous train points and a concurrent reader on a d=3 model",
		moves:    "observe path, WAL group commit, incremental retraining, version encode",
		bypasses: "router",
		setups:   7,
		callers:  1,
		warmup:   400,
		wal:      true,
		gen:      genIngestMixed,
	},
	{
		name:     "router-point",
		why:      "the point-small mix through quickselrouter in front of two quickseld shards: the proxy hop does most of the work",
		moves:    "router proxy hop and its retries",
		bypasses: "core kernel, WAL",
		setups:   9,
		callers:  2,
		warmup:   400,
		sharded:  true,
		// Three Go processes share the CPUs with the load generator. With
		// one P each, idle Ps do not spin against each other's work, which
		// on a 2-CPU host cut read_p50 by a third and most of its spread.
		procs: 1,
		gen:   genRouterPoint,
	},
}

// slice is one set-up's share of a timed phase of the given seconds.
func (w *workloadDef) slice(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second / time.Duration(w.setups)
}

// daemonProcs is the GOMAXPROCS the workload's processes run with.
func (w *workloadDef) daemonProcs() int {
	if w.procs > 0 {
		return w.procs
	}
	return runtime.NumCPU()
}

func workloadByName(name string) (*workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// observation is one feedback record as the daemon receives it.
type observation struct {
	Where string  `json:"where"`
	Sel   float64 `json:"selectivity"`
}

// scored is one query of a fixed scoring set with its exact selectivity.
type scored struct {
	Where  string
	Actual float64
}

// estSpec is one estimator: how it is created, the feedback that trains it
// during set-up, and the scoring set its accuracy is measured on.
type estSpec struct {
	Name         string
	Schema       *predicate.Schema
	Seed         int64
	FixedSubpops int
	WarmStart    bool
	Feedback     []observation
	Scoring      []scored
}

// createBody is the POST /v1/estimators body.
func (s *estSpec) createBody() []byte {
	opts := map[string]any{"seed": s.Seed, "fixed_subpops": s.FixedSubpops}
	if s.WarmStart {
		opts["warm_start"] = true
	}
	b, err := json.Marshal(map[string]any{"name": s.Name, "schema": s.Schema, "options": opts})
	if err != nil {
		panic(err) // plain values; unreachable
	}
	return b
}

// options are the library options the daemon derives from createBody.
func (s *estSpec) options() []quicksel.Option {
	opts := []quicksel.Option{quicksel.WithSeed(s.Seed), quicksel.WithFixedSubpopulations(s.FixedSubpops)}
	if s.WarmStart {
		opts = append(opts, quicksel.WithWarmStart())
	}
	return opts
}

// read is one timed read: a single WHERE clause or a batch, on one
// estimator.
type read struct {
	Est    int
	Wheres []string
}

// writerPlan is the ingest-mixed writer's schedule: cycles of PerCycle
// observe batches sent every Period, each cycle ending in a synchronous
// train and a scoring request.
type writerPlan struct {
	Est      int
	Batches  [][]observation
	PerCycle int
	Period   time.Duration
}

func (p *writerPlan) cycles() int { return len(p.Batches) / p.PerCycle }

// inputs is everything a run sends, generated from the seed alone.
type inputs struct {
	Ests   []*estSpec
	Reads  []read
	Batch  bool // reads use the batch endpoint
	Writer *writerPlan
}

const tableRows = 20000

// modelSeed generates every workload's table, estimator feedback, scoring
// set and the ingest-mixed writer's observations. They are the same in
// every run, so a q-error difference is a difference in the program, not in
// the drawn data; --seed varies the timed reads.
const modelSeed = 1

func genPointSmall(seed int64, _ time.Duration) (*inputs, error) {
	ds, err := workload.NewInstacart(workload.InstacartConfig{Rows: tableRows, Seed: modelSeed})
	if err != nil {
		return nil, err
	}
	est := &estSpec{Name: "orders", Schema: ds.Schema, Seed: modelSeed, FixedSubpops: 300}
	est.Feedback = feedback(ds, 300, 0.1, 0.4, modelSeed+1)
	est.Scoring = scoring(ds, 500, 0.1, 0.4, modelSeed+2)
	in := &inputs{Ests: []*estSpec{est}}
	for _, w := range wheres(ds, 2048, 0.1, 0.4, seed+3) {
		in.Reads = append(in.Reads, read{Wheres: []string{w}})
	}
	return in, nil
}

func genBatchWide(seed int64, _ time.Duration) (*inputs, error) {
	ds, err := workload.NewGaussian(workload.GaussianConfig{Dim: 8, Corr: 0.5, Rows: tableRows, Seed: modelSeed})
	if err != nil {
		return nil, err
	}
	est := &estSpec{Name: "wide", Schema: ds.Schema, Seed: modelSeed, FixedSubpops: 2000}
	est.Feedback = feedback(ds, 200, 0.2, 0.5, modelSeed+1)
	est.Scoring = scoring(ds, 256, 0.2, 0.5, modelSeed+2)
	in := &inputs{Ests: []*estSpec{est}, Batch: true}
	ws := wheres(ds, 32*64, 0.2, 0.5, seed+3)
	for i := 0; i < len(ws); i += 64 {
		in.Reads = append(in.Reads, read{Wheres: ws[i : i+64]})
	}
	return in, nil
}

func genIngestMixed(seed int64, span time.Duration) (*inputs, error) {
	ds, err := workload.NewDMV(workload.DMVConfig{Rows: tableRows, Seed: modelSeed})
	if err != nil {
		return nil, err
	}
	est := &estSpec{Name: "dmv", Schema: ds.Schema, Seed: modelSeed, FixedSubpops: 400, WarmStart: true}
	est.Feedback = feedback(ds, 200, 0.1, 0.5, modelSeed+1)
	est.Scoring = scoring(ds, 256, 0.1, 0.5, modelSeed+2)
	in := &inputs{Ests: []*estSpec{est}}
	for _, w := range wheres(ds, 2048, 0.1, 0.5, seed+3) {
		in.Reads = append(in.Reads, read{Wheres: []string{w}})
	}
	// 2 observations every 5 ms, five times the ~1 ms timer tick, and a
	// train point every 100 observations. The cycle count is fixed by the
	// set-up's share of the run, assuming ~50 ms per train point and its
	// scoring request, not by how fast the daemon trains, so the train
	// points — and the model after each — depend on the run length alone.
	// Every set-up replays the same plan.
	const perBatch = 2
	plan := &writerPlan{PerCycle: 50, Period: 5 * time.Millisecond}
	cycle := time.Duration(plan.PerCycle)*plan.Period + 50*time.Millisecond
	n := max(1, int(span/cycle))
	obs := feedback(ds, n*plan.PerCycle*perBatch, 0.1, 0.5, modelSeed+4)
	for i := 0; i < len(obs); i += perBatch {
		plan.Batches = append(plan.Batches, obs[i:i+perBatch])
	}
	in.Writer = plan
	return in, nil
}

func genRouterPoint(seed int64, _ time.Duration) (*inputs, error) {
	ds, err := workload.NewInstacart(workload.InstacartConfig{Rows: tableRows, Seed: modelSeed})
	if err != nil {
		return nil, err
	}
	// Eight estimators: the names hash onto both shards of the ring.
	in := &inputs{}
	for i := 0; i < 8; i++ {
		s := modelSeed + int64(100*i)
		est := &estSpec{Name: fmt.Sprintf("orders-%d", i), Schema: ds.Schema, Seed: s, FixedSubpops: 300}
		est.Feedback = feedback(ds, 40, 0.1, 0.4, s+1)
		est.Scoring = scoring(ds, 64, 0.1, 0.4, s+2)
		in.Ests = append(in.Ests, est)
	}
	rng := rand.New(rand.NewSource(seed + 3))
	for _, w := range wheres(ds, 2048, 0.1, 0.4, seed+3) {
		in.Reads = append(in.Reads, read{Est: rng.Intn(len(in.Ests)), Wheres: []string{w}})
	}
	return in, nil
}

// wheres draws data-centered range queries (centers on sampled rows, so
// selectivities are realistic rather than mostly empty) and renders them as
// WHERE text the way a client would write them.
func wheres(ds *workload.Dataset, n int, minW, maxW float64, seed int64) []string {
	qs := workload.DataCenteredQueries(ds, n, minW, maxW, seed)
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = whereText(ds.Schema, q)
	}
	return out
}

func whereText(s *predicate.Schema, q workload.Query) string {
	b := q.Box()
	parts := make([]string, s.Dim())
	for c, col := range s.Cols {
		lo, hi := s.Denormalize(c, b.Lo[c]), s.Denormalize(c, b.Hi[c])
		var los, his string
		if col.Kind == predicate.Real {
			los, his = strconv.FormatFloat(lo, 'g', 5, 64), strconv.FormatFloat(hi, 'g', 5, 64)
		} else {
			l, h := math.Floor(lo), math.Ceil(hi)
			if h <= l {
				h = l + 1
			}
			los, his = strconv.FormatFloat(l, 'f', -1, 64), strconv.FormatFloat(h, 'f', -1, 64)
		}
		parts[c] = fmt.Sprintf("%s >= %s AND %s < %s", col.Name, los, col.Name, his)
	}
	return strings.Join(parts, " AND ")
}

// exact is the true selectivity of the WHERE text over the workload table.
func exact(ds *workload.Dataset, where string) float64 {
	p, err := predicate.Parse(ds.Schema, where)
	if err != nil {
		panic(fmt.Sprintf("generated clause %q does not parse: %v", where, err))
	}
	boxes, err := p.Boxes(ds.Schema)
	if err != nil {
		panic(fmt.Sprintf("generated clause %q does not lower: %v", where, err))
	}
	return ds.Table.SelectivityBoxes(boxes)
}

func feedback(ds *workload.Dataset, n int, minW, maxW float64, seed int64) []observation {
	ws := wheres(ds, n, minW, maxW, seed)
	out := make([]observation, n)
	for i, w := range ws {
		out[i] = observation{Where: w, Sel: exact(ds, w)}
	}
	return out
}

func scoring(ds *workload.Dataset, n int, minW, maxW float64, seed int64) []scored {
	ws := wheres(ds, n, minW, maxW, seed)
	out := make([]scored, n)
	for i, w := range ws {
		out[i] = scored{Where: w, Actual: exact(ds, w)}
	}
	return out
}
