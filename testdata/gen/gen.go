// Command gen regenerates the snapshot-envelope compatibility fixtures:
// estimator envelopes at every supported format version (v1 through v5) and
// old-format registry files, each paired with probe WHERE clauses and the
// exact estimates the model produced when the fixture was written. The
// compat tests (snapshot_compat_test.go, internal/server/compat_test.go)
// restore the fixtures with current code and require bit-identical
// estimates, so these files must never be regenerated casually — they exist
// to freeze the old formats. Regenerating must leave the already-committed
// old-version fixtures byte-identical; the version-aware downgrade below
// strips every field the old format did not carry.
//
// It also writes the round-trip fixtures: one encoded current-format
// snapshot per method (testdata/roundtrip) and one registry snapshot file
// saved with a write-ahead log (internal/server/testdata/registry_wal.json).
// Their tests decode and re-encode them and require the same bytes, so they
// pin the persisted form itself rather than the estimates it restores. The
// registry file carries wall-clock version timestamps; those are the only
// bytes a regeneration changes.
//
// Run from the repository root: go run ./testdata/gen
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"quicksel"
	"quicksel/internal/server"
)

// probe is one WHERE clause with the estimate frozen at generation time.
type probe struct {
	Where string  `json:"where"`
	Want  float64 `json:"want"`
}

// snapshotFixture is the shape of testdata/snapshot_v*.json.
type snapshotFixture struct {
	Comment  string             `json:"comment"`
	Snapshot *quicksel.Snapshot `json:"snapshot"`
	Probes   []probe            `json:"probes"`
}

// registryFixture is the shape of internal/server/testdata/registry_v*.json.
// File is the raw registry snapshot file; the test writes it to disk and
// boots a registry from it.
type registryFixture struct {
	Comment string             `json:"comment"`
	File    json.RawMessage    `json:"file"`
	Probes  map[string][]probe `json:"probes"`
}

var probeWheres = []string{
	"age >= 50",
	"age BETWEEN 25 AND 44",
	"salary < 40000 OR salary >= 150000",
	"age < 30 AND salary >= 100000",
}

func fixtureSchema() (*quicksel.Schema, error) {
	return quicksel.NewSchema(
		quicksel.Column{Name: "age", Kind: quicksel.Integer, Min: 18, Max: 90},
		quicksel.Column{Name: "salary", Kind: quicksel.Real, Min: 0, Max: 300_000},
	)
}

// fixtureObservations is the feedback every fixture estimator absorbs.
var fixtureObservations = []struct {
	where string
	sel   float64
}{
	{"age BETWEEN 18 AND 29", 0.22},
	{"age BETWEEN 30 AND 49", 0.41},
	{"salary >= 100000", 0.18},
	{"age BETWEEN 30 AND 49 AND salary >= 100000", 0.12},
	{"salary < 40000", 0.35},
}

func buildEstimator(method string, seed int64, extra ...quicksel.Option) (*quicksel.Estimator, error) {
	schema, err := fixtureSchema()
	if err != nil {
		return nil, err
	}
	opts := []quicksel.Option{quicksel.WithSeed(seed)}
	if method != "" {
		opts = append(opts, quicksel.WithMethod(method))
	}
	est, err := quicksel.New(schema, append(opts, extra...)...)
	if err != nil {
		return nil, err
	}
	for _, o := range fixtureObservations {
		if err := est.ObserveWhere(o.where, o.sel); err != nil {
			return nil, err
		}
	}
	if err := est.Train(); err != nil {
		return nil, err
	}
	return est, nil
}

// buildWarmEstimator builds the v5 fixture model: warm-started, with an
// observation coreset small enough that the near-duplicate observations
// below merge (Jaccard 1) into weighted records.
func buildWarmEstimator(seed int64) (*quicksel.Estimator, error) {
	schema, err := fixtureSchema()
	if err != nil {
		return nil, err
	}
	est, err := quicksel.New(schema,
		quicksel.WithSeed(seed),
		quicksel.WithWarmStart(),
		quicksel.WithFixedSubpopulations(24),
		quicksel.WithMaxObservations(6),
	)
	if err != nil {
		return nil, err
	}
	obs := []struct {
		where string
		sel   float64
	}{
		{"age BETWEEN 18 AND 29", 0.22},
		{"age BETWEEN 30 AND 49", 0.41},
		{"salary >= 100000", 0.18},
		{"age BETWEEN 18 AND 29", 0.24}, // merges with the first record
		{"age BETWEEN 30 AND 49 AND salary >= 100000", 0.12},
		{"salary < 40000", 0.35},
		{"salary >= 100000", 0.20}, // merges with the third record
	}
	for _, o := range obs {
		if err := est.ObserveWhere(o.where, o.sel); err != nil {
			return nil, err
		}
	}
	if err := est.Train(); err != nil {
		return nil, err
	}
	return est, nil
}

// hasMergedWeight reports whether the model carries at least one observation
// with a merged (non-unit) coreset weight.
func hasMergedWeight(s *quicksel.Snapshot) bool {
	if s.Model == nil {
		return false
	}
	for _, o := range s.Model.Observations {
		if o.Weight > 1 {
			return true
		}
	}
	return false
}

func probesFor(est *quicksel.Estimator) ([]probe, error) {
	out := make([]probe, len(probeWheres))
	for i, w := range probeWheres {
		sel, err := est.EstimateWhere(w)
		if err != nil {
			return nil, err
		}
		out[i] = probe{Where: w, Want: sel}
	}
	return out, nil
}

// downgrade rewrites a current envelope into the given old format version,
// stripping every field that version's writers could not produce: v5 added
// the model's observation-coreset fields (per-observation weights and the
// warm-start/coreset config), v4 added the envelope WalSeq and the model's
// rng_draws fast-forward, v3 added the lifecycle section, v2 added
// method+state (v1 was QuickSel-only).
func downgrade(s *quicksel.Snapshot, version int) *quicksel.Snapshot {
	s.Version = version
	if version < 5 && s.Model != nil {
		s.Model.Config.WarmStart = false
		s.Model.Config.MaxObservations = 0
		s.Model.Config.MergeThreshold = 0
		for i := range s.Model.Observations {
			s.Model.Observations[i].Weight = 0
		}
	}
	if version < 4 {
		s.WalSeq = 0
		if s.Model != nil {
			s.Model.RngDraws = 0
		}
	}
	if version < 3 {
		s.Lifecycle = nil
	}
	if version == 1 {
		s.Method = ""
		s.State = nil
	}
	return s
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

func main() {
	// Root fixtures: one v1 envelope (quicksel method, pre-method format)
	// and one v2 envelope (sthole method, pre-lifecycle format).
	qs, err := buildEstimator("", 7)
	if err != nil {
		log.Fatal(err)
	}
	qsProbes, err := probesFor(qs)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeJSON("testdata/snapshot_v1.json", snapshotFixture{
		Comment:  "version-1 estimator envelope (pre-method format, QuickSel only); estimates frozen at generation time",
		Snapshot: downgrade(qs.Snapshot(), 1),
		Probes:   qsProbes,
	}); err != nil {
		log.Fatal(err)
	}

	sth, err := buildEstimator(quicksel.MethodSTHoles, 7)
	if err != nil {
		log.Fatal(err)
	}
	sthProbes, err := probesFor(sth)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeJSON("testdata/snapshot_v2.json", snapshotFixture{
		Comment:  "version-2 estimator envelope (method-aware, pre-lifecycle format) carrying the sthole method",
		Snapshot: downgrade(sth.Snapshot(), 2),
		Probes:   sthProbes,
	}); err != nil {
		log.Fatal(err)
	}

	// v3: lifecycle-aware envelope (maxent method, so the matrix also covers
	// a State-payload method with a lifecycle section).
	me, err := buildEstimator(quicksel.MethodMaxEnt, 7)
	if err != nil {
		log.Fatal(err)
	}
	meProbes, err := probesFor(me)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeJSON("testdata/snapshot_v3.json", snapshotFixture{
		Comment:  "version-3 estimator envelope (lifecycle-aware, pre-WAL format) carrying the maxent method",
		Snapshot: downgrade(me.Snapshot(), 3),
		Probes:   meProbes,
	}); err != nil {
		log.Fatal(err)
	}

	// v4: WAL-aware envelope (quicksel method with the rng_draws
	// fast-forward, no coreset fields).
	qs4, err := buildEstimator("", 11)
	if err != nil {
		log.Fatal(err)
	}
	qs4Probes, err := probesFor(qs4)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeJSON("testdata/snapshot_v4.json", snapshotFixture{
		Comment:  "version-4 estimator envelope (WAL-aware, pre-coreset format) carrying the quicksel method",
		Snapshot: downgrade(qs4.Snapshot(), 4),
		Probes:   qs4Probes,
	}); err != nil {
		log.Fatal(err)
	}

	// v5: the current format — a warm-started QuickSel model with an
	// observation coreset, so the fixture freezes merged observation weights
	// and the warm/coreset config fields.
	warm, err := buildWarmEstimator(13)
	if err != nil {
		log.Fatal(err)
	}
	warmProbes, err := probesFor(warm)
	if err != nil {
		log.Fatal(err)
	}
	warmSnap := warm.Snapshot()
	if !hasMergedWeight(warmSnap) {
		log.Fatal("v5 fixture has no merged observation weight; adjust the observation set")
	}
	if err := writeJSON("testdata/snapshot_v5.json", snapshotFixture{
		Comment:  "version-5 estimator envelope (coreset-aware) carrying a warm-started quicksel model with merged observation weights",
		Snapshot: warmSnap,
		Probes:   warmProbes,
	}); err != nil {
		log.Fatal(err)
	}

	// Registry fixtures: a v1 file (quicksel-only, envelopes downgraded to
	// v1) and a v2 file (one quicksel + one sthole estimator, envelopes at
	// v2).
	type registryFile struct {
		Version    int                           `json:"version"`
		Estimators map[string]*quicksel.Snapshot `json:"estimators"`
	}
	v1file, err := json.Marshal(registryFile{
		Version:    1,
		Estimators: map[string]*quicksel.Snapshot{"people": downgrade(qs.Snapshot(), 1)},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := writeJSON("internal/server/testdata/registry_v1.json", registryFixture{
		Comment: "version-1 registry snapshot file (quicksel-only envelopes)",
		File:    v1file,
		Probes:  map[string][]probe{"people": qsProbes},
	}); err != nil {
		log.Fatal(err)
	}

	v2file, err := json.Marshal(registryFile{
		Version: 2,
		Estimators: map[string]*quicksel.Snapshot{
			"people":   downgrade(qs.Snapshot(), 2),
			"people_h": downgrade(sth.Snapshot(), 2),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := writeJSON("internal/server/testdata/registry_v2.json", registryFixture{
		Comment: "version-2 registry snapshot file (method-aware envelopes, no lifecycle section)",
		File:    v2file,
		Probes:  map[string][]probe{"people": qsProbes, "people_h": sthProbes},
	}); err != nil {
		log.Fatal(err)
	}
	if err := writeRoundTripFixtures(warm); err != nil {
		log.Fatal(err)
	}
	fmt.Println("fixtures regenerated")
}

// writeRoundTripFixtures writes testdata/roundtrip/<name>.json, each the
// EncodeSnapshot output of one trained estimator, and the registry file.
func writeRoundTripFixtures(warm *quicksel.Estimator) error {
	builds := []struct {
		name   string
		method string
		extra  []quicksel.Option
	}{
		{"quicksel", quicksel.MethodQuickSel, nil},
		{"quicksel_iterative", quicksel.MethodQuickSel, []quicksel.Option{quicksel.WithIterativeSolver()}},
		{"sthole", quicksel.MethodSTHoles, nil},
		{"isomer", quicksel.MethodIsomer, nil},
		{"maxent", quicksel.MethodMaxEnt, nil},
		{"sample", quicksel.MethodSample, nil},
		{"scanhist", quicksel.MethodScanHist, nil},
	}
	ests := map[string]*quicksel.Estimator{"quicksel_warm": warm}
	for _, b := range builds {
		est, err := buildEstimator(b.method, 17, b.extra...)
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		ests[b.name] = est
	}
	if err := os.MkdirAll("testdata/roundtrip", 0o755); err != nil {
		return err
	}
	for name, est := range ests {
		var buf bytes.Buffer
		if err := est.EncodeSnapshot(&buf); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := os.WriteFile(filepath.Join("testdata/roundtrip", name+".json"), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return writeRegistryWALFixture()
}

// writeRegistryWALFixture runs a registry with a write-ahead log over one
// quicksel and one sthole estimator and copies the snapshot file its Close
// writes, which carries the log watermarks.
func writeRegistryWALFixture() error {
	dir, err := os.MkdirTemp("", "quicksel-gen-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "state.json")
	reg, err := server.NewRegistry(server.Config{
		SnapshotPath:  path,
		WALDir:        filepath.Join(dir, "wal"),
		TrainInterval: time.Hour, // train only where this function says so
	})
	if err != nil {
		return err
	}
	schema, err := fixtureSchema()
	if err != nil {
		return err
	}
	for _, e := range []struct {
		name string
		opts []quicksel.Option
	}{
		{"people", []quicksel.Option{quicksel.WithSeed(19)}},
		{"people_h", []quicksel.Option{quicksel.WithSeed(19), quicksel.WithMethod(quicksel.MethodSTHoles)}},
	} {
		if err := reg.Create(e.name, schema, e.opts...); err != nil {
			return err
		}
		for _, o := range fixtureObservations {
			if _, _, err := reg.Observe(e.name, o.where, o.sel); err != nil {
				return err
			}
		}
		if err := reg.Train(e.name); err != nil {
			return err
		}
	}
	if err := reg.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return os.WriteFile("internal/server/testdata/registry_wal.json", data, 0o644)
}
