package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"quicksel/internal/core"
	"quicksel/internal/sample"
	"quicksel/internal/scanhist"
	"quicksel/internal/stats"
	"quicksel/internal/workload"
)

// Figure5Config drives the data-drift comparison of Figure 5: QuickSel vs
// the periodically-updated scan-based methods (AutoHist, AutoSample) on a
// Gaussian dataset whose correlation shifts as batches are inserted. The
// paper used 1M initial rows + 200K per batch over 1000 queries with 100
// parameters per method; defaults scale rows down, keeping the 10-batch /
// 100-queries-per-batch structure and the 100-parameter budget.
type Figure5Config struct {
	InitialRows     int // 0 = 100_000
	BatchRows       int // 0 = 20_000
	Batches         int // 0 = 10 (correlation 0.0, 0.1, ..., 0.9)
	QueriesPerBatch int // 0 = 100
	Params          int // 0 = 100
	Seed            int64
}

func (c Figure5Config) withDefaults() Figure5Config {
	if c.InitialRows == 0 {
		c.InitialRows = 100000
	}
	if c.BatchRows == 0 {
		c.BatchRows = 20000
	}
	if c.Batches == 0 {
		c.Batches = 10
	}
	if c.QueriesPerBatch == 0 {
		c.QueriesPerBatch = 100
	}
	if c.Params == 0 {
		c.Params = 100
	}
	return c
}

// Figure5Point is one batch's mean relative error per method (Fig 5a).
type Figure5Point struct {
	Batch       int
	QuerySeqEnd int // last query sequence number of the batch
	QuickSel    float64
	AutoHist    float64
	AutoSample  float64
}

// Figure5Result collects the error trajectory and the update-time bars
// (Fig 5b).
type Figure5Result struct {
	Points []Figure5Point
	// Mean update time per method in ms: for QuickSel the per-batch
	// retrain, for AutoHist the rebuild scans, for AutoSample the
	// resampling scans.
	UpdateMsQuickSel   float64
	UpdateMsAutoHist   float64
	UpdateMsAutoSample float64
	// Overall mean relative errors (the paper's 57.3% / 91.1% headline).
	MeanQuickSel   float64
	MeanAutoHist   float64
	MeanAutoSample float64
}

// RunFigure5 executes the drift experiment.
func RunFigure5(cfg Figure5Config) (*Figure5Result, error) {
	cfg = cfg.withDefaults()
	ds, err := workload.NewGaussian(workload.GaussianConfig{
		Dim: 2, Corr: 0, Rows: cfg.InitialRows, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	hist, err := scanhist.New(ds.Table, scanhist.Config{Buckets: cfg.Params})
	if err != nil {
		return nil, err
	}
	smp, err := sample.New(ds.Table, sample.Config{Size: cfg.Params, Seed: cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	qs, err := core.New(core.Config{Dim: 2, Seed: cfg.Seed + 2, FixedSubpops: cfg.Params})
	if err != nil {
		return nil, err
	}

	res := &Figure5Result{}
	var allQS, allAH, allAS stats.Summary
	var qsUpdate, ahUpdate, asUpdate stats.Summary
	seq := 0
	for batch := 0; batch < cfg.Batches; batch++ {
		// Queries of this batch, answered with the current statistics.
		queries := workload.GaussianQueries(ds.Schema, cfg.QueriesPerBatch, workload.RandomShift, cfg.Seed+10+int64(batch))
		obs := workload.Observe(ds, queries)
		var eQS, eAH, eAS stats.Summary
		for _, o := range obs {
			b := o.Query.Box()
			if est, err := qs.Estimate(b); err == nil {
				eQS.Add(stats.RelativeError(o.Sel, est))
				allQS.Add(stats.RelativeError(o.Sel, est))
			}
			if est, err := hist.Estimate(b); err == nil {
				eAH.Add(stats.RelativeError(o.Sel, est))
				allAH.Add(stats.RelativeError(o.Sel, est))
			}
			if est, err := smp.Estimate(b); err == nil {
				eAS.Add(stats.RelativeError(o.Sel, est))
				allAS.Add(stats.RelativeError(o.Sel, est))
			}
			// Feed the executed query back into QuickSel (its whole point:
			// learning from the workload without scans).
			if err := qs.Observe(b, o.Sel); err != nil {
				return nil, err
			}
		}
		seq += cfg.QueriesPerBatch
		res.Points = append(res.Points, Figure5Point{
			Batch:       batch,
			QuerySeqEnd: seq,
			QuickSel:    eQS.Mean(),
			AutoHist:    eAH.Mean(),
			AutoSample:  eAS.Mean(),
		})

		// QuickSel refreshes its model every 100 queries (§5.3).
		start := time.Now()
		if err := qs.Train(); err != nil {
			return nil, err
		}
		qsUpdate.Add(float64(time.Since(start).Nanoseconds()) / 1e6)

		// Insert the drift batch with the next correlation level, then let
		// the scan-based methods apply their auto-update rules. Update time
		// is averaged over the refreshes that actually happen (Fig 5b).
		if batch < cfg.Batches-1 {
			corr := 0.1 * float64(batch+1)
			if err := workload.AppendGaussian(ds, cfg.BatchRows, corr, cfg.Seed+100+int64(batch)); err != nil {
				return nil, err
			}
			start = time.Now()
			if hist.MaybeRefresh() {
				ahUpdate.Add(float64(time.Since(start).Nanoseconds()) / 1e6)
			}
			start = time.Now()
			if smp.MaybeRefresh() {
				asUpdate.Add(float64(time.Since(start).Nanoseconds()) / 1e6)
			}
		}
	}
	res.UpdateMsQuickSel = qsUpdate.Mean()
	res.UpdateMsAutoHist = ahUpdate.Mean()
	res.UpdateMsAutoSample = asUpdate.Mean()
	res.MeanQuickSel = allQS.Mean()
	res.MeanAutoHist = allAH.Mean()
	res.MeanAutoSample = allAS.Mean()
	return res, nil
}

// String renders Figure 5a as a series table and Figure 5b as update-time
// lines.
func (r *Figure5Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 5a — accuracy under data drift (mean rel. error per 100-query batch)\n")
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.QuerySeqEnd),
			fmt.Sprintf("%.1f%%", p.AutoHist*100),
			fmt.Sprintf("%.1f%%", p.AutoSample*100),
			fmt.Sprintf("%.1f%%", p.QuickSel*100),
		})
	}
	sb.WriteString(renderTable([]string{"QuerySeq", "AutoHist", "AutoSample", "QuickSel"}, rows))
	fmt.Fprintf(&sb, "\noverall mean rel. error: QuickSel %.1f%%, AutoHist %.1f%%, AutoSample %.1f%%\n",
		r.MeanQuickSel*100, r.MeanAutoHist*100, r.MeanAutoSample*100)
	if r.MeanAutoHist > 0 {
		fmt.Fprintf(&sb, "QuickSel vs AutoHist error reduction: %.1f%%\n",
			(1-r.MeanQuickSel/r.MeanAutoHist)*100)
	}
	if r.MeanAutoSample > 0 {
		fmt.Fprintf(&sb, "QuickSel vs AutoSample error reduction: %.1f%%\n",
			(1-r.MeanQuickSel/r.MeanAutoSample)*100)
	}
	sb.WriteString("\nFigure 5b — update time (ms, mean per refresh)\n")
	sb.WriteString(renderTable(
		[]string{"Method", "UpdateTime"},
		[][]string{
			{"AutoHist", fmt.Sprintf("%.2f", r.UpdateMsAutoHist)},
			{"AutoSample", fmt.Sprintf("%.2f", r.UpdateMsAutoSample)},
			{"QuickSel", fmt.Sprintf("%.2f", r.UpdateMsQuickSel)},
		}))
	return sb.String()
}

// Figure5bScalingPoint is one table size in the update-cost scaling series.
type Figure5bScalingPoint struct {
	Rows       int
	AutoHistMs float64 // full rebuild (scan) time
	SampleMs   float64 // resample (scan) time
	QuickSelMs float64 // model retrain time (independent of table size)
}

// Figure5bScalingResult demonstrates the structural claim behind Figure 5b:
// scan-based statistics pay per-row update costs while QuickSel's refresh
// cost depends only on the number of observed queries. The paper ran on an
// 11.9M-row table where scans dominate by 243–525×; at this repository's
// laptop scale the absolute gap is smaller, so the series sweeps table
// sizes to expose the trend.
type Figure5bScalingResult struct {
	Points []Figure5bScalingPoint
}

// RunFigure5bScaling measures update cost per method across table sizes,
// with the query-driven model held at 100 observed queries / 100 params.
func RunFigure5bScaling(rowSizes []int, seed int64) (*Figure5bScalingResult, error) {
	if len(rowSizes) == 0 {
		rowSizes = []int{20000, 50000, 100000, 200000, 400000}
	}
	res := &Figure5bScalingResult{}
	for _, rows := range rowSizes {
		ds, err := workload.NewGaussian(workload.GaussianConfig{Dim: 2, Corr: 0.3, Rows: rows, Seed: seed})
		if err != nil {
			return nil, err
		}
		hist, err := scanhist.New(ds.Table, scanhist.Config{Buckets: 100})
		if err != nil {
			return nil, err
		}
		smp, err := sample.New(ds.Table, sample.Config{Size: 100, Seed: seed + 1})
		if err != nil {
			return nil, err
		}
		qs, err := core.New(core.Config{Dim: 2, Seed: seed + 2, FixedSubpops: 100})
		if err != nil {
			return nil, err
		}
		obs := workload.Observe(ds, workload.GaussianQueries(ds.Schema, 100, workload.RandomShift, seed+3))
		for _, o := range obs {
			if err := qs.Observe(o.Query.Box(), o.Sel); err != nil {
				return nil, err
			}
		}

		point := Figure5bScalingPoint{Rows: rows}
		point.AutoHistMs = fastestMs(hist.Rebuild)
		point.SampleMs = fastestMs(smp.Resample)
		var trainErr error
		point.QuickSelMs = fastestMs(func() { trainErr = errors.Join(trainErr, qs.Train()) })
		if trainErr != nil {
			return nil, trainErr
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// fastestMs times update scalingReps times and returns the fastest run in
// milliseconds. A single wall-clock sample of a ~1 ms update also measures
// whatever else the host ran at that moment; the fastest of several is
// the update's own cost.
func fastestMs(update func()) float64 {
	best := math.Inf(1)
	for range scalingReps {
		start := time.Now()
		update()
		best = min(best, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return best
}

// scalingReps is how many times RunFigure5bScaling times each update.
const scalingReps = 5

// String renders the scaling series.
func (r *Figure5bScalingResult) String() string {
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Rows),
			fmt.Sprintf("%.2f", p.AutoHistMs),
			fmt.Sprintf("%.2f", p.SampleMs),
			fmt.Sprintf("%.2f", p.QuickSelMs),
		})
	}
	return "Figure 5b scaling — update time (ms) vs table size\n" +
		renderTable([]string{"Rows", "AutoHist", "AutoSample", "QuickSel"}, rows)
}
