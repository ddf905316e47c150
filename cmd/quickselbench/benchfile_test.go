package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A BENCH_quicksel.json that does not parse stops warm, perf and drift
// before they measure anything, with an error naming the file, and leaves
// its bytes as they were: rewriting it would keep only the subcommand's own
// section and drop the rest.
func TestBenchSubcommandsLeaveUnparsableFileUntouched(t *testing.T) {
	corrupt := []byte("{\"gomaxprocs\": 1, \"results\": [ <<<<<<< HEAD\n")
	for _, name := range []string{"warm", "perf", "drift"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_quicksel.json")
			if err := os.WriteFile(path, corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			err := run([]string{name, "-out", path, "-maxm", "1", "-rows", "2000"})
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("%s on an unparsable file: err = %v, want an error naming %s", name, err, path)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, corrupt) {
				t.Fatalf("%s rewrote the unparsable file:\n%s", name, got)
			}
		})
	}
}

// A missing file starts empty: warm writes a file holding its own section.
func TestWarmStartsMissingBenchFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_quicksel.json")
	if err := run([]string{"warm", "-out", path, "-maxm", "1"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report perfReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.WarmStart == nil || report.WarmStart.GoMaxProcs < 1 || report.WarmStart.NumCPU < 1 ||
		report.WarmStart.CPU == "" || report.Results != nil || report.Drift != nil {
		t.Fatalf("warm on a missing file wrote %s", data)
	}
}
