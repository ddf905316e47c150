// Command perfbench is the repository's benchmark. It starts real
// quickseld and quickselrouter processes on loopback, drives one seeded
// workload against them from this single load-generator process, checks
// every answer against an in-process control estimator, and prints the
// end-to-end metrics. With -trace 1 it instead replays the same inputs
// against an in-process replica built through the server's public API,
// times the calls into each layer, and prints the per-layer split.
//
// Build and run it through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload point-small --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"read_p50_us": {"value": 182.4, "unit": "us"}, ...}}
//
// The workloads and the reason each exists are in workloads.go.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	bin      string
	work     string
	gitSHA   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: point-small, batch-wide, ingest-mixed or router-point")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 12, "length of the timed phase, shared out over the workload's set-ups")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the quickseld and quickselrouter binaries")
	flag.StringVar(&o.work, "work", ".bench_build/run", "scratch directory for daemon data and span files")
	flag.StringVar(&o.gitSHA, "git-sha", "unknown", "commit being measured, for the provenance record")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	in, err := w.gen(o.seed, w.slice(o.seconds))
	if err != nil {
		return fmt.Errorf("generate inputs: %w", err)
	}
	var rep *report
	if o.trace == 1 {
		rep, err = runTraced(w, in, o)
	} else {
		// One P for the load generator: with two, its idle Ps spin on the
		// CPUs the daemons need. In interleaved runs on a 2-CPU host this
		// cut read_p50 by 13% on point-small and 9% on ingest-mixed, and the
		// run-to-run spread of point-small's read_p50 from 0.14 to 0.09.
		runtime.GOMAXPROCS(1)
		rep, err = runE2E(w, in, o)
	}
	if err != nil {
		return err
	}
	return printReport(w, o, rep)
}

func printReport(w *workloadDef, o options, rep *report) error {
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "workload %s (seed %d, %d s, trace %d): %s\n", w.name, o.seed, o.seconds, o.trace, w.why)
	fmt.Fprintf(out, "  should move: %s; should not see: %s\n", w.moves, w.bypasses)
	prov, err := json.Marshal(provenance(w, o, rep))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "provenance %s\n", prov)
	attempted, failed := rep.t.attempted.Load(), rep.t.failed.Load()
	for _, m := range append(rep.metrics, rep.printed...) {
		fmt.Fprintf(out, "  %-28s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	frac := 0.0
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	fmt.Fprintf(out, "  %-28s %14.4f %-6s %d of %d operations\n", "failed_frac", frac, "ratio", failed, attempted)
	for _, f := range rep.t.first {
		fmt.Fprintf(out, "  failure: %s\n", f)
	}
	metrics := map[string]any{}
	for _, m := range rep.metrics {
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	correct := failed == 0 && attempted > 0
	res, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(attempted, 1),
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", res)
	if err := out.Flush(); err != nil {
		return err
	}
	if !correct {
		return fmt.Errorf("%d of %d operations failed", failed, attempted)
	}
	return nil
}

// provenance records where and how the numbers were taken. A run whose
// processes plus load connections exceed the CPU count is labelled: its
// latencies include waiting for a core.
func provenance(w *workloadDef, o options, rep *report) map[string]any {
	procs := rep.procs + 1 // the load generator
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     map[string]int{"perfbench": runtime.GOMAXPROCS(0), "daemons": w.daemonProcs()},
		"cpu":            cpuModel(),
		"go":             runtime.Version(),
		"git_sha":        o.gitSHA,
		"seed":           o.seed,
		"seconds":        o.seconds,
		"processes":      procs,
		"connections":    rep.conns,
		"oversubscribed": procs+rep.conns > runtime.NumCPU(),
		"flags":          rep.flags,
	}
}

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
