// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5), plus ablations of its design choices. Every
// driver is deterministic in its seed, returns a structured result, and
// renders the same rows/series the paper reports. bench_test.go at the
// repository root exposes each driver as a testing.B benchmark, and
// cmd/quickselbench exposes them as CLI subcommands.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"quicksel/internal/core"
	"quicksel/internal/geom"
	"quicksel/internal/isomer"
	"quicksel/internal/querymodel"
	"quicksel/internal/stats"
	"quicksel/internal/sthole"
	"quicksel/internal/workload"
)

// QueryDriven is the contract shared by all query-driven estimators under
// comparison (QuickSel, STHoles, ISOMER, ISOMER+QP, QueryModel).
type QueryDriven interface {
	// Observe records one (normalized predicate box, true selectivity) pair.
	Observe(box geom.Box, sel float64) error
	// Estimate returns the estimated selectivity of a normalized box.
	Estimate(box geom.Box) (float64, error)
	// ParamCount reports the current number of model parameters.
	ParamCount() int
}

// Trainer is implemented by methods with an explicit training step
// (QuickSel, ISOMER); the harness calls it so that per-query time includes
// "the time to store the query and run the necessary optimization
// routines" (§5.1).
type Trainer interface {
	Train() error
}

// Method names accepted by NewMethod and the experiment configs.
const (
	MethodQuickSel   = "quicksel"
	MethodSTHoles    = "stholes"
	MethodISOMER     = "isomer"
	MethodISOMERQP   = "isomer+qp"
	MethodQueryModel = "querymodel"
)

// AllQueryDriven lists the query-driven methods in the order Figure 3
// plots them.
var AllQueryDriven = []string{
	MethodSTHoles, MethodISOMER, MethodISOMERQP, MethodQueryModel, MethodQuickSel,
}

// MethodOptions tunes method construction for specific experiments.
type MethodOptions struct {
	Seed int64
	// FixedParams pins QuickSel's subpopulation count (Fig 5, Fig 7c) and
	// STHoles' bucket budget. 0 keeps each method's default policy.
	FixedParams int
	// MaxBuckets caps ISOMER's partition (0 = package default).
	MaxBuckets int
}

// NewMethod constructs a query-driven estimator by name.
func NewMethod(name string, dim int, opts MethodOptions) (QueryDriven, error) {
	switch name {
	case MethodQuickSel:
		cfg := core.Config{Dim: dim, Seed: opts.Seed}
		if opts.FixedParams > 0 {
			cfg.FixedSubpops = opts.FixedParams
		}
		return core.New(cfg)
	case MethodSTHoles:
		cfg := sthole.Config{Dim: dim}
		if opts.FixedParams > 0 {
			cfg.MaxBuckets = opts.FixedParams
		}
		return sthole.New(cfg)
	case MethodISOMER:
		return isomer.New(isomer.Config{Dim: dim, Solver: isomer.IterativeScaling, MaxBuckets: opts.MaxBuckets})
	case MethodISOMERQP:
		return isomer.New(isomer.Config{Dim: dim, Solver: isomer.QuickSelQP, MaxBuckets: opts.MaxBuckets})
	case MethodQueryModel:
		return querymodel.New(querymodel.Config{Dim: dim})
	default:
		return nil, fmt.Errorf("experiments: unknown method %q", name)
	}
}

// MethodResult is one (method, training-set-size) measurement: the unit of
// data behind Figures 3 and 4 and Table 3.
type MethodResult struct {
	Method     string
	N          int     // observed queries ingested
	Params     int     // model parameters after training
	TrainMs    float64 // total observe+train wall time
	PerQueryMs float64 // TrainMs / N
	RelErr     float64 // mean relative error on the test set (fraction)
	AbsErr     float64 // mean absolute error on the test set
}

// RunMethod ingests the training observations into a fresh instance of the
// named method, trains it, and evaluates it on the test set.
func RunMethod(name string, dim int, train, test []workload.Observed, opts MethodOptions) (MethodResult, error) {
	est, err := NewMethod(name, dim, opts)
	if err != nil {
		return MethodResult{}, err
	}
	start := time.Now()
	for _, o := range train {
		if err := est.Observe(o.Query.Box(), o.Sel); err != nil {
			return MethodResult{}, fmt.Errorf("%s observe: %w", name, err)
		}
	}
	if tr, ok := est.(Trainer); ok {
		if err := tr.Train(); err != nil {
			return MethodResult{}, fmt.Errorf("%s train: %w", name, err)
		}
	}
	elapsed := time.Since(start)

	var rel, abs stats.Summary
	for _, o := range test {
		got, err := est.Estimate(o.Query.Box())
		if err != nil {
			return MethodResult{}, fmt.Errorf("%s estimate: %w", name, err)
		}
		rel.Add(stats.RelativeError(o.Sel, got))
		abs.Add(stats.AbsoluteError(o.Sel, got))
	}
	n := len(train)
	res := MethodResult{
		Method:  name,
		N:       n,
		Params:  est.ParamCount(),
		TrainMs: float64(elapsed.Nanoseconds()) / 1e6,
		RelErr:  rel.Mean(),
		AbsErr:  abs.Mean(),
	}
	if n > 0 {
		res.PerQueryMs = res.TrainMs / float64(n)
	}
	return res, nil
}

// DatasetByName builds one of the three evaluation datasets.
func DatasetByName(name string, rows int, seed int64) (*workload.Dataset, []workload.Query, error) {
	switch name {
	case "dmv":
		ds, err := workload.NewDMV(workload.DMVConfig{Rows: rows, Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		return ds, nil, nil
	case "instacart":
		ds, err := workload.NewInstacart(workload.InstacartConfig{Rows: rows, Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		return ds, nil, nil
	case "gaussian":
		ds, err := workload.NewGaussian(workload.GaussianConfig{Dim: 2, Corr: 0.5, Rows: rows, Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		return ds, nil, nil
	default:
		return nil, nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
}

// QueriesFor draws the paper's workload for a dataset. The DMV and
// Instacart workloads are data-centered — the paper's queries probe actual
// registrations/orders, and the DMV data concentrates on a thin
// (registration, expiration) band that uniformly random rectangles would
// almost always miss.
func QueriesFor(ds *workload.Dataset, n int, seed int64) []workload.Query {
	switch {
	case strings.HasPrefix(ds.Name, "dmv"):
		return workload.DataCenteredQueries(ds, n, 0.10, 0.45, seed)
	case strings.HasPrefix(ds.Name, "instacart"):
		return workload.DataCenteredQueries(ds, n, 0.20, 0.70, seed)
	default:
		return workload.GaussianQueries(ds.Schema, n, workload.RandomShift, seed)
	}
}

// renderTable renders rows of equal length with a header, columns aligned.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteByte('\n')
	}
	line(header)
	total := len(header)*2 - 2
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

// sortedKeys returns the keys of a string-keyed map in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
