package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"quicksel"
	"quicksel/internal/core"
	"quicksel/internal/geom"
	"quicksel/internal/obs"
)

// perfSizes is the (m, d) matrix of the perf trajectory: subpopulation
// counts across the paper's operating range (the 4000 cap is the paper's
// default model size) by low- and high-dimensional predicates.
var perfSizes = []struct{ m, d int }{
	{250, 2}, {250, 8},
	{1000, 2}, {1000, 8},
	{4000, 2}, {4000, 8},
}

// perfResult is one row of BENCH_quicksel.json.
type perfResult struct {
	M               int     `json:"m"`
	D               int     `json:"d"`
	TrainSeqMs      float64 `json:"train_seq_ms"`
	TrainParMs      float64 `json:"train_par_ms"`
	TrainSpeedup    float64 `json:"train_speedup"`
	EstimateNs      float64 `json:"estimate_ns"`
	BatchPerQueryNs float64 `json:"estimate_batch_per_query_ns"`
	// Tail percentiles of the single-estimate latency, from the same
	// log-linear histogram the daemon exports on /metrics; the mean above
	// hides the tail the daemon's SLO lives on.
	EstimateP50Ns float64 `json:"estimate_p50_ns"`
	EstimateP95Ns float64 `json:"estimate_p95_ns"`
	EstimateP99Ns float64 `json:"estimate_p99_ns"`
}

// perfReport is the file shape of BENCH_quicksel.json. The perf subcommand
// owns the kernel fields; the drift subcommand owns the Drift section and
// preserves the rest when it rewrites the file.
type perfReport struct {
	GoMaxProcs int          `json:"gomaxprocs"`
	GoVersion  string       `json:"go_version"`
	Note       string       `json:"note"`
	Results    []perfResult `json:"results"`
	// Observe is the ingest-path throughput comparison with the
	// write-ahead log off vs on (observe.go; owned by the perf subcommand).
	Observe *observeReport `json:"observe,omitempty"`
	// WarmStart is the incremental-vs-full retraining comparison
	// (quickselbench warm).
	WarmStart *warmReport `json:"warm_start,omitempty"`
	// Drift is the recovery-time/accuracy comparison of promotion policies
	// under a drifting workload (quickselbench drift).
	Drift *driftReport `json:"drift,omitempty"`
}

// readBenchFile returns the report at path, so a subcommand can rewrite its
// own section and keep the others. A missing file is an empty report. A file
// that exists but does not parse (a merge-conflict marker, a truncated
// write) is an error: rewriting it would keep only the caller's section and
// drop every other. Subcommands read it before measuring, so such a run
// stops at once and leaves the file as it was.
func readBenchFile(path string) (*perfReport, error) {
	report := &perfReport{}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return report, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, report); err != nil {
		return nil, fmt.Errorf("%s does not parse, so it is left unchanged: %w", path, err)
	}
	return report, nil
}

// writeBenchFile writes report to path as indented JSON.
func writeBenchFile(path string, report *perfReport) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// perfObserve feeds m/10 deterministic synthetic range queries so the
// workload-aware center pool can fill an m-subpopulation budget.
func perfObserve(model *core.Model, m, d int) error {
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < m/10; q++ {
		lo := make([]float64, d)
		hi := make([]float64, d)
		for k := 0; k < d; k++ {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			lo[k], hi[k] = a, b
		}
		if err := model.Observe(geom.NewBox(lo, hi), rng.Float64()); err != nil {
			return err
		}
	}
	return nil
}

// timeTrain builds a model with the given worker count and times one full
// training run.
func timeTrain(m, d, workers int) (time.Duration, *core.Model, error) {
	model, err := core.New(core.Config{Dim: d, Seed: 1, FixedSubpops: m, Workers: workers})
	if err != nil {
		return 0, nil, err
	}
	if err := perfObserve(model, m, d); err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := model.Train(); err != nil {
		return 0, nil, err
	}
	return time.Since(start), model, nil
}

// timeBatch measures per-query time through the real public batch path —
// predicate lowering outside the estimator lock, one lock acquisition per
// EstimateBatch call, the clauses split over GOMAXPROCS goroutines — so the
// JSON column characterizes the batch API, not a re-run of the
// single-estimate kernel.
func timeBatch(m, d int) (nsPerQuery float64, err error) {
	cols := make([]quicksel.Column, d)
	for i := range cols {
		cols[i] = quicksel.Column{Name: fmt.Sprintf("c%d", i), Kind: quicksel.Real, Min: 0, Max: 1}
	}
	schema, err := quicksel.NewSchema(cols...)
	if err != nil {
		return 0, err
	}
	est, err := quicksel.New(schema, quicksel.WithSeed(1), quicksel.WithFixedSubpopulations(m))
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < m/10; q++ {
		lo := rng.Float64() * 0.7
		if err := est.Observe(quicksel.Range(q%d, lo, lo+0.3), rng.Float64()); err != nil {
			return 0, err
		}
	}
	if err := est.Train(); err != nil {
		return 0, err
	}
	const batch = 128
	preds := make([]*quicksel.Predicate, batch)
	for i := range preds {
		lo := rng.Float64() * 0.8
		preds[i] = quicksel.Range(i%d, lo, lo+0.2)
	}
	const iters = 20
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := est.EstimateBatch(preds); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / (iters * batch), nil
}

// runPerf measures the training and serving kernels across the size matrix
// and writes BENCH_quicksel.json. maxM (when > 0) caps the subpopulation
// axis so a laptop run can skip the multi-second m=4000 rows.
func runPerf(outPath string, maxM int) (string, error) {
	report := perfReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Note: "train_seq_ms uses Workers=1, train_par_ms uses Workers=GOMAXPROCS; " +
			"both produce bit-identical weights. Speedup requires a multi-core host.",
	}
	var file *perfReport
	if outPath != "" {
		var err error
		if file, err = readBenchFile(outPath); err != nil {
			return "", err
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "perf: GOMAXPROCS=%d %s\n", report.GoMaxProcs, report.GoVersion)
	fmt.Fprintf(&b, "%6s %3s %14s %14s %8s %13s %14s %10s %10s %10s\n",
		"m", "d", "train-seq-ms", "train-par-ms", "speedup", "estimate-ns", "batch-ns/query",
		"est-p50-ns", "est-p95-ns", "est-p99-ns")
	for _, sz := range perfSizes {
		if maxM > 0 && sz.m > maxM {
			continue
		}
		seq, _, err := timeTrain(sz.m, sz.d, 1)
		if err != nil {
			return "", fmt.Errorf("perf m=%d d=%d sequential: %w", sz.m, sz.d, err)
		}
		par, model, err := timeTrain(sz.m, sz.d, 0)
		if err != nil {
			return "", fmt.Errorf("perf m=%d d=%d parallel: %w", sz.m, sz.d, err)
		}

		// Serving kernel: single estimates, then a batch through the same
		// model to capture per-query amortization.
		lo := make([]float64, sz.d)
		hi := make([]float64, sz.d)
		for k := 0; k < sz.d; k++ {
			lo[k], hi[k] = 0.2, 0.7
		}
		box := geom.NewBox(lo, hi)
		const estIters = 2000
		var hist obs.Histogram
		start := time.Now()
		for i := 0; i < estIters; i++ {
			t := time.Now()
			if _, err := model.Estimate(box); err != nil {
				return "", err
			}
			hist.Observe(time.Since(t))
		}
		estNs := float64(time.Since(start).Nanoseconds()) / estIters
		snap := hist.Snapshot()

		batchNs, err := timeBatch(sz.m, sz.d)
		if err != nil {
			return "", fmt.Errorf("perf m=%d d=%d batch: %w", sz.m, sz.d, err)
		}

		res := perfResult{
			M:               sz.m,
			D:               sz.d,
			TrainSeqMs:      float64(seq.Microseconds()) / 1e3,
			TrainParMs:      float64(par.Microseconds()) / 1e3,
			TrainSpeedup:    seq.Seconds() / par.Seconds(),
			EstimateNs:      estNs,
			BatchPerQueryNs: batchNs,
			EstimateP50Ns:   float64(snap.Quantile(0.50).Nanoseconds()),
			EstimateP95Ns:   float64(snap.Quantile(0.95).Nanoseconds()),
			EstimateP99Ns:   float64(snap.Quantile(0.99).Nanoseconds()),
		}
		report.Results = append(report.Results, res)
		fmt.Fprintf(&b, "%6d %3d %14.1f %14.1f %8.2f %13.0f %14.0f %10.0f %10.0f %10.0f\n",
			res.M, res.D, res.TrainSeqMs, res.TrainParMs, res.TrainSpeedup,
			res.EstimateNs, res.BatchPerQueryNs,
			res.EstimateP50Ns, res.EstimateP95Ns, res.EstimateP99Ns)
	}
	observe, observeOut, err := runObserveBench()
	if err != nil {
		return "", fmt.Errorf("perf observe: %w", err)
	}
	report.Observe = observe
	b.WriteString("\n")
	b.WriteString(observeOut)

	if outPath != "" {
		// Keep the sections other subcommands own.
		report.WarmStart, report.Drift = file.WarmStart, file.Drift
		if err := writeBenchFile(outPath, &report); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "wrote %s\n", outPath)
	}
	return b.String(), nil
}
