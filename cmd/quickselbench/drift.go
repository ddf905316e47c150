package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"quicksel"
	"quicksel/internal/lifecycle"
	"quicksel/internal/server"
	"quicksel/internal/workload"
)

// Drift-benchmark shape: a mean-shift drifting Gaussian stream fed through
// the serving registry in batches, once per promotion policy. The model
// only ever sees (predicate, selectivity) feedback; the per-batch MAE of
// the serving model's prequential estimates (its answer before absorbing
// each record) is the realized-accuracy series the table reports.
const (
	driftDefaultRows = 8000
	driftPhases      = 3
	driftQPP         = 120
	driftBatch       = 20
	driftMaxSubpops  = 512
	// driftRecoveryMAE is the absolute serving-quality bar of the recovery
	// measurement: after drift, stale feedback keeps competing in the fit,
	// so no policy returns to the pristine pre-drift error — what matters is
	// how fast the serving model is usable again.
	driftRecoveryMAE = 0.05
)

// driftPolicyResult is one policy's row in the report.
type driftPolicyResult struct {
	Policy      string  `json:"policy"`
	BaselineMAE float64 `json:"baseline_mae"`
	PeakMAE     float64 `json:"peak_mae"`
	FinalMAE    float64 `json:"final_mae"`
	// RecoveryBatches counts feedback batches after the final drift phase
	// began until the per-batch MAE returned under the recovery bar
	// (max(1.5× pre-drift baseline, driftRecoveryMAE)); -1 means it never
	// recovered within the stream.
	RecoveryBatches int    `json:"recovery_batches"`
	DriftEvents     uint64 `json:"drift_events"`
	Promotions      uint64 `json:"promotions"`
	Rejections      uint64 `json:"rejections"`
	TrainRuns       uint64 `json:"train_runs"`
}

// driftReport is the drift section of BENCH_quicksel.json.
type driftReport struct {
	Seed            int64               `json:"seed"`
	Kind            string              `json:"kind"`
	Rows            int                 `json:"rows"`
	Phases          int                 `json:"phases"`
	QueriesPerPhase int                 `json:"queries_per_phase"`
	BatchSize       int                 `json:"batch_size"`
	Policies        []driftPolicyResult `json:"policies"`
}

// runDriftPolicy feeds the stream through a fresh registry under one
// promotion policy and returns the per-batch MAE series plus the lifecycle
// counters.
func runDriftPolicy(res *workload.DriftStreamResult, policy lifecycle.Policy, seed int64) ([]float64, server.EstimatorInfo, error) {
	reg, err := server.NewRegistry(server.Config{
		// The bench drives training explicitly after each batch; park the
		// debounce worker out of the way.
		TrainInterval: time.Hour,
		Lifecycle: lifecycle.Config{
			Policy:         policy,
			Window:         64,
			DriftThreshold: 0.1,
		},
	})
	if err != nil {
		return nil, server.EstimatorInfo{}, err
	}
	defer reg.Close()

	const name = "drift"
	err = reg.Create(name, res.Schema,
		quicksel.WithSeed(seed),
		quicksel.WithMaxSubpopulations(driftMaxSubpops))
	if err != nil {
		return nil, server.EstimatorInfo{}, err
	}

	var series []float64
	for lo := 0; lo < len(res.Stream); lo += driftBatch {
		hi := lo + driftBatch
		if hi > len(res.Stream) {
			hi = len(res.Stream)
		}
		recs := make([]server.ParsedObservation, hi-lo)
		for i, o := range res.Stream[lo:hi] {
			recs[i] = server.ParsedObservation{Pred: o.Query.Pred, Sel: o.Sel}
		}
		ests, _, _, err := reg.ObserveParsed(name, recs)
		if err != nil {
			return nil, server.EstimatorInfo{}, err
		}
		var mae float64
		for i, est := range ests {
			mae += math.Abs(est - recs[i].Sel)
		}
		series = append(series, mae/float64(len(ests)))
		if err := reg.Train(name); err != nil {
			return nil, server.EstimatorInfo{}, err
		}
	}
	infos := reg.List()
	return series, infos[0], nil
}

// summarizeDriftSeries turns a per-batch MAE series into the policy row.
func summarizeDriftSeries(series []float64, starts []int, info server.EstimatorInfo, policy lifecycle.Policy) driftPolicyResult {
	// Baseline: the settled half of the pre-drift phase (skip the cold
	// start, where the model has seen nothing).
	phase1 := starts[1] / driftBatch
	baseLo := phase1 / 2
	var baseline float64
	for _, v := range series[baseLo:phase1] {
		baseline += v
	}
	baseline /= float64(phase1 - baseLo)

	peak := 0.0
	for _, v := range series[phase1:] {
		if v > peak {
			peak = v
		}
	}

	bar := 1.5 * baseline
	if bar < driftRecoveryMAE {
		bar = driftRecoveryMAE
	}
	finalPhase := starts[len(starts)-1] / driftBatch
	recovery := -1
	for i, v := range series[finalPhase:] {
		if v <= bar {
			recovery = i
			break
		}
	}
	finalN := 3
	if finalN > len(series) {
		finalN = len(series)
	}
	var final float64
	for _, v := range series[len(series)-finalN:] {
		final += v
	}
	final /= float64(finalN)

	return driftPolicyResult{
		Policy:          string(policy),
		BaselineMAE:     baseline,
		PeakMAE:         peak,
		FinalMAE:        final,
		RecoveryBatches: recovery,
		DriftEvents:     info.DriftEvents,
		Promotions:      info.Promotions,
		Rejections:      info.Rejections,
		TrainRuns:       info.TrainRuns,
	}
}

// runDriftBench races the shadow and always promotion policies over the
// same mean-shift drifting Gaussian stream and reports recovery time and
// accuracy per policy, appending the seeded result to BENCH_quicksel.json
// (preserving the perf section).
func runDriftBench(rows int, seed int64, outPath string) (string, error) {
	if rows == 0 {
		rows = driftDefaultRows
	}
	var file *perfReport
	if outPath != "" {
		var err error
		if file, err = readBenchFile(outPath); err != nil {
			return "", err
		}
	}
	cfg := workload.DriftConfig{
		Kind:            workload.MeanShiftDrift,
		Rows:            rows,
		Phases:          driftPhases,
		QueriesPerPhase: driftQPP,
		Shift:           2,
		MinWidth:        0.05,
		MaxWidth:        0.20,
		Seed:            seed,
	}
	stream, err := workload.DriftStream(cfg)
	if err != nil {
		return "", err
	}

	report := driftReport{
		Seed:            seed,
		Kind:            cfg.Kind.String(),
		Rows:            rows,
		Phases:          driftPhases,
		QueriesPerPhase: driftQPP,
		BatchSize:       driftBatch,
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Promotion policies under %s drift — gaussian d=2, %d rows/phase, %d phases × %d queries, batches of %d (seed %d)\n",
		cfg.Kind, rows, driftPhases, driftQPP, driftBatch, seed)
	fmt.Fprintf(&sb, "MAE is the serving model's prequential error; recovery is batches after the final shift until MAE ≤ max(1.5×baseline, %.2f)\n\n", driftRecoveryMAE)
	fmt.Fprintf(&sb, "%-8s %12s %10s %10s %9s %7s %7s %7s %7s\n",
		"policy", "baseline", "peak", "final", "recovery", "drift", "promo", "reject", "trains")
	for _, policy := range []lifecycle.Policy{lifecycle.PolicyAlways, lifecycle.PolicyShadow} {
		series, info, err := runDriftPolicy(stream, policy, seed)
		if err != nil {
			return "", fmt.Errorf("drift %s: %w", policy, err)
		}
		row := summarizeDriftSeries(series, stream.PhaseStarts, info, policy)
		report.Policies = append(report.Policies, row)
		recovery := fmt.Sprintf("%d", row.RecoveryBatches)
		if row.RecoveryBatches < 0 {
			recovery = "never"
		}
		fmt.Fprintf(&sb, "%-8s %12.4f %10.4f %10.4f %9s %7d %7d %7d %7d\n",
			row.Policy, row.BaselineMAE, row.PeakMAE, row.FinalMAE, recovery,
			row.DriftEvents, row.Promotions, row.Rejections, row.TrainRuns)
	}

	if outPath != "" {
		file.Drift = &report
		if err := writeBenchFile(outPath, file); err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "\nwrote drift section to %s\n", outPath)
	}
	return sb.String(), nil
}
