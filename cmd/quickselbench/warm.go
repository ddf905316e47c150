package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"quicksel/internal/core"
	"quicksel/internal/geom"
)

// warmSizes is the subpopulation axis of the warm-start comparison: the
// paper's default cap (4000) plus a mid-size model. Both use Workers=1 so
// the numbers isolate the algorithmic win (rank-1 updates vs a fresh
// factorization) from core-count effects.
var warmSizes = []struct{ m, d int }{
	{1000, 4},
	{4000, 4},
}

// warmBatches is the growing tail of feedback batches retrained into the
// same model, in order: a retrain after 16 new observations, then another
// after 64 more.
var warmBatches = []int{16, 64}

// warmResult is one row of the warm_start section of BENCH_quicksel.json.
type warmResult struct {
	M       int `json:"m"`
	D       int `json:"d"`
	History int `json:"history"` // observations already trained in
	Batch   int `json:"batch"`   // new observations this retrain absorbs
	// FullMs retrains a cold model over the identical state (history+batch)
	// with a fresh factorization; IncrementalMs re-solves the warm model
	// from its kept factorization by rank-1 updates.
	FullMs        float64 `json:"full_ms"`
	IncrementalMs float64 `json:"incremental_ms"`
	Speedup       float64 `json:"speedup"`
}

// warmReport is the warm_start section of BENCH_quicksel.json. Its rows
// are timings, so it records the host they were taken on.
type warmReport struct {
	Note       string       `json:"note"`
	GoMaxProcs int          `json:"gomaxprocs"`
	NumCPU     int          `json:"nproc"`
	CPU        string       `json:"cpu"`
	Results    []warmResult `json:"results"`
}

// cpuModel returns the processor model named in /proc/cpuinfo, or "unknown"
// where that file is missing or names none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// newWarmModel builds a model with a frozen m-subpopulation budget, feeds it
// the deterministic history workload, and pays the first full train.
func newWarmModel(m, d int, warmStart bool) (*core.Model, int, error) {
	model, err := core.New(core.Config{Dim: d, Seed: 1, FixedSubpops: m, Workers: 1, WarmStart: warmStart})
	if err != nil {
		return nil, 0, err
	}
	if err := perfObserve(model, m, d); err != nil {
		return nil, 0, err
	}
	if err := model.Train(); err != nil {
		return nil, 0, err
	}
	return model, m / 10, nil
}

// warmObserveBatch appends n deterministic observations drawn from a seed
// offset, so warm and cold models absorb identical batches.
func warmObserveBatch(model *core.Model, d, n, offset int) error {
	rng := rand.New(rand.NewSource(int64(1000 + offset)))
	for q := 0; q < n; q++ {
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

// runWarmBench measures warm-start incremental retraining against full
// retraining over identical model state and writes the warm_start section
// of BENCH_quicksel.json. maxM (when > 0) caps the subpopulation axis;
// minSpeedup (when > 0) fails the run if any batch-64 row comes in under
// it — the CI smoke gate.
func runWarmBench(outPath string, maxM int, minSpeedup float64) (string, error) {
	var file *perfReport
	if outPath != "" {
		var err error
		if file, err = readBenchFile(outPath); err != nil {
			return "", err
		}
	}
	report := &warmReport{
		Note: "full_ms refits a cold model over identical state (fresh factorization); " +
			"incremental_ms re-solves the warm model by rank-1 updates. Both use Workers=1.",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
	}
	var b strings.Builder
	fmt.Fprintf(&b, "warm: GOMAXPROCS=%d NumCPU=%d %s %s\n", report.GoMaxProcs, report.NumCPU, report.CPU, runtime.Version())
	fmt.Fprintf(&b, "%6s %3s %8s %6s %10s %14s %8s\n", "m", "d", "history", "batch", "full-ms", "incremental-ms", "speedup")
	for _, sz := range warmSizes {
		if maxM > 0 && sz.m > maxM {
			continue
		}
		warm, history, err := newWarmModel(sz.m, sz.d, true)
		if err != nil {
			return "", fmt.Errorf("warm m=%d: %w", sz.m, err)
		}
		cold, _, err := newWarmModel(sz.m, sz.d, false)
		if err != nil {
			return "", fmt.Errorf("cold m=%d: %w", sz.m, err)
		}
		offset := 0
		for _, batch := range warmBatches {
			// Identical growing tails: both models absorb the same batch on
			// top of the same history, then retrain.
			if err := warmObserveBatch(warm, sz.d, batch, offset); err != nil {
				return "", err
			}
			if err := warmObserveBatch(cold, sz.d, batch, offset); err != nil {
				return "", err
			}
			offset += batch

			start := time.Now()
			if err := warm.Train(); err != nil {
				return "", fmt.Errorf("warm train m=%d batch=%d: %w", sz.m, batch, err)
			}
			incr := time.Since(start)
			if mode := warm.TrainMode(); mode != core.TrainModeIncremental {
				return "", fmt.Errorf("warm train m=%d batch=%d ran %q, want %q", sz.m, batch, mode, core.TrainModeIncremental)
			}

			start = time.Now()
			if err := cold.Train(); err != nil {
				return "", fmt.Errorf("cold train m=%d batch=%d: %w", sz.m, batch, err)
			}
			full := time.Since(start)
			if mode := cold.TrainMode(); mode != core.TrainModeFull {
				return "", fmt.Errorf("cold train m=%d batch=%d ran %q, want %q", sz.m, batch, mode, core.TrainModeFull)
			}

			res := warmResult{
				M:             sz.m,
				D:             sz.d,
				History:       history,
				Batch:         batch,
				FullMs:        float64(full.Microseconds()) / 1e3,
				IncrementalMs: float64(incr.Microseconds()) / 1e3,
				Speedup:       full.Seconds() / incr.Seconds(),
			}
			history += batch
			report.Results = append(report.Results, res)
			fmt.Fprintf(&b, "%6d %3d %8d %6d %10.1f %14.1f %8.1f\n",
				res.M, res.D, res.History, res.Batch, res.FullMs, res.IncrementalMs, res.Speedup)
			if minSpeedup > 0 && batch == warmBatches[len(warmBatches)-1] && res.Speedup < minSpeedup {
				return "", fmt.Errorf("warm m=%d batch=%d speedup %.2fx below the %.2fx floor",
					sz.m, batch, res.Speedup, minSpeedup)
			}
		}
	}

	if outPath != "" {
		file.WarmStart = report
		if err := writeBenchFile(outPath, file); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "wrote %s\n", outPath)
	}
	return b.String(), nil
}
