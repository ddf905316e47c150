package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"quicksel/internal/core"
	"quicksel/internal/estimator"
	"quicksel/internal/experiments"
	"quicksel/internal/workload"
)

// compareDefaults for runCompare when the shared flags are left zero.
const (
	compareDefaultRows  = 20000
	compareDefaultTrain = 60
	compareTestQueries  = 200
)

// runCompare races every estimation method the quickseld daemon can serve —
// QuickSel and the paper's five baselines — over one generated workload,
// through the same pluggable Backend interface (internal/estimator) the
// daemon uses. It reproduces the shape of the paper's §5 comparison online:
// identical feedback stream in, per-method accuracy and latency out.
//
// The scan-based methods (sample, scanhist) run in their serving
// configuration: they materialize a synthetic table from the feedback
// stream rather than scanning the dataset's base table, so their numbers
// reflect what quickseld would serve, not the offline AutoSample/AutoHist
// of internal/experiments.
func runCompare(dataset string, rows, maxN int, seed int64) (string, error) {
	if rows == 0 {
		rows = compareDefaultRows
	}
	nTrain := maxN
	if nTrain == 0 {
		nTrain = compareDefaultTrain
	}
	ds, _, err := experiments.DatasetByName(dataset, rows, seed)
	if err != nil {
		return "", err
	}
	queries := experiments.QueriesFor(ds, nTrain+compareTestQueries, seed+1)
	observed := workload.Observe(ds, queries)
	train, test := observed[:nTrain], observed[nTrain:]

	type row struct {
		method    string
		observeMs float64
		trainMs   float64
		estUs     float64
		params    int
		rmse      float64
		meanAbs   float64
	}
	var rows2 []row
	for _, method := range estimator.Methods() {
		b, err := estimator.New(estimator.Config{Method: method, Config: core.Config{Dim: ds.Schema.Dim(), Seed: seed}})
		if err != nil {
			return "", fmt.Errorf("compare: new %s: %w", method, err)
		}
		start := time.Now()
		for _, o := range train {
			if err := b.Observe(o.Query.Box(), o.Sel); err != nil {
				return "", fmt.Errorf("compare: %s observe: %w", method, err)
			}
		}
		observeMs := float64(time.Since(start).Nanoseconds()) / 1e6
		start = time.Now()
		if err := b.Train(); err != nil {
			return "", fmt.Errorf("compare: %s train: %w", method, err)
		}
		trainMs := float64(time.Since(start).Nanoseconds()) / 1e6

		var sumSq, sumAbs float64
		start = time.Now()
		for _, o := range test {
			got, err := b.Estimate(o.Query.Boxes)
			if err != nil {
				return "", fmt.Errorf("compare: %s estimate: %w", method, err)
			}
			d := got - o.Sel
			sumSq += d * d
			sumAbs += math.Abs(d)
		}
		estUs := float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(test))

		rows2 = append(rows2, row{
			method:    method,
			observeMs: observeMs,
			trainMs:   trainMs,
			estUs:     estUs,
			params:    b.Stats().Params,
			rmse:      math.Sqrt(sumSq / float64(len(test))),
			meanAbs:   sumAbs / float64(len(test)),
		})
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "Method comparison — %s, %d training + %d test queries (seed %d)\n",
		ds.Name, nTrain, compareTestQueries, seed)
	fmt.Fprintf(&sb, "served through the quickseld backend interface; errors are on selectivity in [0,1]\n\n")
	fmt.Fprintf(&sb, "%-10s %12s %10s %12s %9s %9s %10s\n",
		"method", "observe(ms)", "train(ms)", "est(µs/qry)", "params", "rmse", "mean|err|")
	for _, r := range rows2 {
		fmt.Fprintf(&sb, "%-10s %12.2f %10.2f %12.2f %9d %9.4f %10.4f\n",
			r.method, r.observeMs, r.trainMs, r.estUs, r.params, r.rmse, r.meanAbs)
	}
	return sb.String(), nil
}
