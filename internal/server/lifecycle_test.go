package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"quicksel"
	"quicksel/internal/geom"
	"quicksel/internal/lifecycle"
	"quicksel/internal/workload"
)

// whereFor renders a conjunctive WHERE clause equivalent to a normalized
// query box, so workload-generated queries can ride the real HTTP observe
// path.
func whereFor(s *quicksel.Schema, b geom.Box) string {
	parts := make([]string, s.Dim())
	for c := 0; c < s.Dim(); c++ {
		lo := s.Denormalize(c, b.Lo[c])
		hi := s.Denormalize(c, b.Hi[c])
		parts[c] = fmt.Sprintf("x%d >= %s AND x%d < %s",
			c, strconv.FormatFloat(lo, 'g', -1, 64),
			c, strconv.FormatFloat(hi, 'g', -1, 64))
	}
	return strings.Join(parts, " AND ")
}

// observeRecs POSTs a batch of (where, selectivity) records and forces a
// synchronous train, i.e. one full trip through the promotion gate.
func observeAndTrain(t *testing.T, base, name string, wheres []string, sels []float64) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(`{"observations": [`)
	for i := range wheres {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"where": %q, "selectivity": %s}`,
			wheres[i], strconv.FormatFloat(sels[i], 'g', -1, 64))
	}
	sb.WriteString(`]}`)
	status, body := doJSON(t, "POST", base+"/v1/"+name+"/observe", sb.String())
	mustStatus(t, http.StatusAccepted, status, body)
	status, body = doJSON(t, "POST", base+"/v1/"+name+"/train", "{}")
	mustStatus(t, http.StatusOK, status, body)
}

func getAccuracy(t *testing.T, base, name string) AccuracyInfo {
	t.Helper()
	status, body := doJSON(t, "GET", base+"/v1/"+name+"/accuracy", "")
	mustStatus(t, http.StatusOK, status, body)
	var info AccuracyInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("decode accuracy %s: %v", body, err)
	}
	return info
}

func getVersions(t *testing.T, base, name string) VersionsInfo {
	t.Helper()
	status, body := doJSON(t, "GET", base+"/v1/"+name+"/versions", "")
	mustStatus(t, http.StatusOK, status, body)
	var info VersionsInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("decode versions %s: %v", body, err)
	}
	return info
}

// TestLifecycleDriftE2E is the acceptance test of the model lifecycle:
// under a mean-shift drifting workload a shadow-policy estimator must
// detect drift, retrain, promote only winning challengers, reject a
// challenger trained on poisoned feedback when the held-out tail is
// genuine, and — after a forced bad promotion (poisoned feedback all the
// way through the holdout) — restore the prior version's bit-identical
// estimates through POST /v1/{name}/rollback.
func TestLifecycleDriftE2E(t *testing.T) {
	rows, qpp := 6000, 60
	if testing.Short() {
		rows, qpp = 3000, 40
	}
	stream, err := workload.DriftStream(workload.DriftConfig{
		Kind:            workload.MeanShiftDrift,
		Rows:            rows,
		Phases:          2,
		QueriesPerPhase: qpp,
		Shift:           2,
		MinWidth:        0.05,
		MaxWidth:        0.20,
		Seed:            11,
	})
	if err != nil {
		t.Fatal(err)
	}
	phase0 := stream.Stream[:stream.PhaseStarts[1]]
	phase1 := stream.Stream[stream.PhaseStarts[1]:]
	toWheres := func(obs []workload.Observed) ([]string, []float64) {
		wheres := make([]string, len(obs))
		sels := make([]float64, len(obs))
		for i, o := range obs {
			wheres[i] = whereFor(stream.Schema, o.Query.Box())
			sels[i] = o.Sel
		}
		return wheres, sels
	}

	_, ts := newTestServer(t, Config{TrainInterval: time.Hour})
	schemaJSON, err := json.Marshal(stream.Schema)
	if err != nil {
		t.Fatal(err)
	}
	status, body := doJSON(t, "POST", ts.URL+"/v1/estimators", fmt.Sprintf(`{
		"name": "drift", "schema": %s,
		"options": {"seed": 5, "max_subpops": 256, "retrain_policy": "shadow",
		            "drift_threshold": 0.15, "accuracy_window": 64, "version_history": 6}}`,
		schemaJSON))
	mustStatus(t, http.StatusCreated, status, body)

	acc := getAccuracy(t, ts.URL, "drift")
	if acc.Policy != string(lifecycle.PolicyShadow) {
		t.Fatalf("policy = %q, want shadow", acc.Policy)
	}
	if acc.Version.ID != 1 {
		t.Fatalf("initial version = %d, want 1", acc.Version.ID)
	}

	// Phase 0: stationary workload, fed in batches with a train after each.
	const batch = 20
	wheres, sels := toWheres(phase0)
	for lo := 0; lo < len(wheres); lo += batch {
		hi := min(lo+batch, len(wheres))
		observeAndTrain(t, ts.URL, "drift", wheres[lo:hi], sels[lo:hi])
	}
	preDrift := getAccuracy(t, ts.URL, "drift")

	// Phase 1: the mean has shifted 2σ. The tracker must raise a drift
	// alarm and the gate must promote retrained (winning) challengers.
	wheres, sels = toWheres(phase1)
	for lo := 0; lo < len(wheres); lo += batch {
		hi := min(lo+batch, len(wheres))
		observeAndTrain(t, ts.URL, "drift", wheres[lo:hi], sels[lo:hi])
	}
	postDrift := getAccuracy(t, ts.URL, "drift")
	if postDrift.Accuracy.DriftEvents <= preDrift.Accuracy.DriftEvents {
		t.Fatalf("drift events %d after the shift, want more than the %d before",
			postDrift.Accuracy.DriftEvents, preDrift.Accuracy.DriftEvents)
	}
	if postDrift.Version.ID <= preDrift.Version.ID {
		t.Fatalf("no challenger promoted after drift: version stayed %d", postDrift.Version.ID)
	}
	if postDrift.Version.Origin != lifecycle.OriginTrained {
		t.Fatalf("serving version origin = %q, want trained", postDrift.Version.Origin)
	}

	// Poisoned head, genuine tail: the challenger trains on garbage, the
	// gate scores on the genuine held-out quarter, the champion must win.
	nGarbage := 24
	gw, gs := toWheres(phase1[:nGarbage])
	for i := range gs {
		gs[i] = 0.95
	}
	tw, tsel := toWheres(phase1[len(phase1)-8:])
	before := getVersions(t, ts.URL, "drift")
	observeAndTrain(t, ts.URL, "drift", append(gw, tw...), append(gs, tsel...))
	after := getVersions(t, ts.URL, "drift")
	if after.Current.ID != before.Current.ID {
		t.Fatalf("poisoned challenger was promoted: version %d -> %d", before.Current.ID, after.Current.ID)
	}
	if len(after.History) == 0 || after.History[0].Origin != lifecycle.OriginRejected {
		t.Fatalf("rejected challenger not archived: history %+v", after.History)
	}
	rejAcc := getAccuracy(t, ts.URL, "drift")
	if rejAcc.LastGate == nil || rejAcc.LastGate.Promote {
		t.Fatalf("last gate = %+v, want a rejection verdict", rejAcc.LastGate)
	}

	// Record the champion's estimates, then force a bad promotion: when the
	// poison reaches through the held-out tail too, the challenger fits the
	// garbage better than the champion and wins the gate — exactly the
	// failure mode rollback exists for.
	probes := make([]string, 5)
	for i := range probes {
		probes[i] = whereFor(stream.Schema, phase1[i].Query.Box())
	}
	want := make([]float64, len(probes))
	for i, p := range probes {
		want[i] = estimate(t, ts.URL, "drift", p)
	}
	goodVersion := after.Current.ID

	// A flood of adversarial feedback: the poisoned clauses dominate the
	// batch (repeated, so the QP weights them heavily) and reach through
	// the held-out tail, so the challenger fits the garbage better than
	// the champion and wins the gate — exactly the failure mode rollback
	// exists for. A couple of rounds may be needed before the challenger
	// overcomes the genuine history.
	pw, _ := toWheres(phase1[:24])
	var aw []string
	var as []float64
	for rep := 0; rep < 5; rep++ {
		for _, w := range pw {
			aw = append(aw, w)
			as = append(as, 0.98)
		}
	}
	promoted := false
	for round := 0; round < 3 && !promoted; round++ {
		observeAndTrain(t, ts.URL, "drift", aw, as)
		promoted = getVersions(t, ts.URL, "drift").Current.ID != goodVersion
	}
	if !promoted {
		g := getAccuracy(t, ts.URL, "drift").LastGate
		t.Fatalf("adversarial flood never won the gate (last verdict %+v); cannot exercise rollback", g)
	}
	changed := false
	for i, p := range probes {
		if estimate(t, ts.URL, "drift", p) != want[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("bad promotion did not change any probe estimate")
	}

	// Roll back (empty body → the previous champion) and require
	// bit-identical estimates.
	status, body = doJSON(t, "POST", ts.URL+"/v1/drift/rollback", "")
	mustStatus(t, http.StatusOK, status, body)
	var rb struct {
		Version lifecycle.Version `json:"version"`
	}
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatal(err)
	}
	if rb.Version.ID != goodVersion {
		t.Fatalf("rollback restored version %d, want %d", rb.Version.ID, goodVersion)
	}
	for i, p := range probes {
		if got := estimate(t, ts.URL, "drift", p); got != want[i] {
			t.Errorf("after rollback, estimate(%q) = %v, want bit-identical %v", p, got, want[i])
		}
	}
	vi := getVersions(t, ts.URL, "drift")
	if vi.Current.ID != goodVersion {
		t.Fatalf("serving version after rollback = %d, want %d", vi.Current.ID, goodVersion)
	}

	// Rollback to a version that never existed is a 400, not a crash; so is
	// a typoed field — a silent default rollback would swap the wrong model.
	status, body = doJSON(t, "POST", ts.URL+"/v1/drift/rollback", `{"version": 9999}`)
	mustStatus(t, http.StatusBadRequest, status, body)
	status, body = doJSON(t, "POST", ts.URL+"/v1/drift/rollback", `{"verison": 1}`)
	mustStatus(t, http.StatusBadRequest, status, body)
}

// TestDriftAlarmTriggersImmediateTrain checks the drift wake bypasses the
// debounce: with a train interval of an hour, a retrain can only happen
// because the alarm woke the background worker directly.
func TestDriftAlarmTriggersImmediateTrain(t *testing.T) {
	reg, err := NewRegistry(Config{
		TrainInterval: time.Hour,
		Lifecycle:     lifecycle.Config{Window: 64, DriftThreshold: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	var schema quicksel.Schema
	if err := json.Unmarshal([]byte(peopleSchema), &schema); err != nil {
		t.Fatal(err)
	}
	if err := reg.Create("wake", &schema, quicksel.WithSeed(1), quicksel.WithMaxSubpopulations(64)); err != nil {
		t.Fatal(err)
	}

	// Settle the model, then feed feedback that contradicts it hard enough
	// to trip the Page–Hinkley alarm.
	if _, _, err := reg.Observe("wake", "age BETWEEN 18 AND 29", 0.2); err != nil {
		t.Fatal(err)
	}
	if err := reg.Train("wake"); err != nil {
		t.Fatal(err)
	}
	base := reg.List()[0].TrainRuns
	// Anchor the detector's running mean with accurate feedback (no train
	// in between, so no reset), then jump the error: Page–Hinkley fires on
	// the increase relative to the in-window baseline.
	for i := 0; i < 8; i++ {
		if _, _, err := reg.Observe("wake", "age BETWEEN 18 AND 29", 0.2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 48; i++ {
		if _, _, err := reg.Observe("wake", "age BETWEEN 18 AND 29", 0.95); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := reg.Accuracy("wake")
	if err != nil {
		t.Fatal(err)
	}
	if acc.Accuracy.DriftEvents == 0 {
		t.Fatal("contradictory feedback did not raise a drift alarm")
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.List()[0].TrainRuns == base {
		if time.Now().After(deadline) {
			t.Fatal("drift alarm did not trigger a retrain ahead of the 1h debounce")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestShadowColdStart guards against the cold-start lockout: the very
// first trained model must be promoted unconditionally under PolicyShadow,
// because an untrained uniform champion would otherwise beat every sparse
// early challenger on off-support holdout records and the estimator would
// never learn.
func TestShadowColdStart(t *testing.T) {
	_, ts := newTestServer(t, Config{TrainInterval: time.Hour})
	status, body := doJSON(t, "POST", ts.URL+"/v1/estimators",
		fmt.Sprintf(`{"name": "cold", "schema": %s, "options": {"seed": 42, "retrain_policy": "shadow"}}`, peopleSchema))
	mustStatus(t, http.StatusCreated, status, body)

	// A tiny batch whose holdout tail sits outside the head's support —
	// the shape that used to lose to the uniform prior forever.
	observeAndTrain(t, ts.URL, "cold", []string{
		"age BETWEEN 18 AND 29", "age BETWEEN 30 AND 49", "age >= 65",
	}, []float64{0.22, 0.41, 0.15})

	vi := getVersions(t, ts.URL, "cold")
	if vi.Current.ID != 2 || vi.Current.Origin != lifecycle.OriginTrained {
		t.Fatalf("first trained model not promoted on cold start: current = %+v", vi.Current)
	}
}

// TestLifecyclePolicyNever checks the manual-promotion workflow: trained
// models are archived, the serving model never changes on its own, and a
// rollback onto an archived candidate promotes it.
func TestLifecyclePolicyNever(t *testing.T) {
	_, ts := newTestServer(t, Config{TrainInterval: time.Hour})
	status, body := doJSON(t, "POST", ts.URL+"/v1/estimators",
		fmt.Sprintf(`{"name": "frozen", "schema": %s, "options": {"seed": 3, "retrain_policy": "never"}}`, peopleSchema))
	mustStatus(t, http.StatusCreated, status, body)

	const probe = "age BETWEEN 25 AND 44"
	before := estimate(t, ts.URL, "frozen", probe)

	observeAndTrain(t, ts.URL, "frozen", []string{
		"age BETWEEN 18 AND 29", "age BETWEEN 30 AND 49", "salary >= 100000",
	}, []float64{0.22, 0.41, 0.18})

	if got := estimate(t, ts.URL, "frozen", probe); got != before {
		t.Fatalf("policy never changed the serving model: %v -> %v", before, got)
	}
	vi := getVersions(t, ts.URL, "frozen")
	if vi.Current.ID != 1 || len(vi.History) != 1 {
		t.Fatalf("versions = %+v, want current 1 and one archived candidate", vi)
	}
	if vi.History[0].Origin != lifecycle.OriginRejected {
		t.Fatalf("candidate origin = %q, want rejected (archived, never served)", vi.History[0].Origin)
	}

	// Manual promotion: roll "back" onto the trained candidate.
	status, body = doJSON(t, "POST", ts.URL+"/v1/frozen/rollback",
		fmt.Sprintf(`{"version": %d}`, vi.History[0].ID))
	mustStatus(t, http.StatusOK, status, body)
	if got := estimate(t, ts.URL, "frozen", probe); got == before {
		t.Fatal("manual promotion did not change the serving model")
	}
}

// TestRegistrySnapshotDuringRetrainRace hammers SaveSnapshot while
// observations stream in and explicit trains run — the snapshot must
// capture each estimator's serving model and lifecycle state consistently
// (same critical section as the trainer's swap). Run with -race; the final
// file must boot a working registry.
func TestRegistrySnapshotDuringRetrainRace(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.json")
	reg, err := NewRegistry(Config{
		SnapshotPath:  snap,
		TrainInterval: time.Millisecond,
		Lifecycle:     lifecycle.Config{Policy: lifecycle.PolicyShadow, Window: 32, DriftThreshold: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var schema quicksel.Schema
	if err := json.Unmarshal([]byte(peopleSchema), &schema); err != nil {
		t.Fatal(err)
	}
	if err := reg.Create("race", &schema, quicksel.WithSeed(9), quicksel.WithMaxSubpopulations(64)); err != nil {
		t.Fatal(err)
	}

	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, 4*iters)
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			// Rollbacks race the trainer's swaps and the snapshotter's
			// capture; "nothing to roll back to" is a legitimate outcome.
			_, err := reg.Rollback("race", 0)
			if err != nil {
				var rb *RollbackError
				if !errors.As(err, &rb) {
					errs <- err
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			lo := 18 + i%40
			_, _, err := reg.ObserveBatch("race", []Observation{
				{Where: fmt.Sprintf("age BETWEEN %d AND %d", lo, lo+10), Sel: float64(i%10) / 10},
				{Where: "salary >= 100000", Sel: 0.2},
			})
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := reg.Train("race"); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := reg.Estimate("race", "age >= 50"); err != nil {
				errs <- err
				return
			}
			if _, err := reg.Accuracy("race"); err != nil {
				errs <- err
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		if err := reg.SaveSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// The final snapshot must boot a registry whose lifecycle state is
	// coherent: the serving version exists and accuracy is readable.
	reg2, err := NewRegistry(Config{SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	vi, err := reg2.Versions("race")
	if err != nil {
		t.Fatal(err)
	}
	if vi.Current.ID < 1 {
		t.Fatalf("restored current version = %+v", vi.Current)
	}
	if _, err := reg2.Estimate("race", "age >= 50"); err != nil {
		t.Fatal(err)
	}
}

// TestLifecyclePersistence round-trips the full lifecycle state through the
// registry snapshot file: version history (with payloads), tracker window,
// counters, and rollback across a restart.
func TestLifecyclePersistence(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.json")
	srv1, ts1 := newTestServer(t, Config{SnapshotPath: snap, TrainInterval: time.Hour})
	status, body := doJSON(t, "POST", ts1.URL+"/v1/estimators",
		fmt.Sprintf(`{"name": "persist", "schema": %s, "options": {"seed": 3, "version_history": 4}}`, peopleSchema))
	mustStatus(t, http.StatusCreated, status, body)

	observeAndTrain(t, ts1.URL, "persist", []string{
		"age BETWEEN 18 AND 29", "salary >= 100000",
	}, []float64{0.22, 0.18})
	observeAndTrain(t, ts1.URL, "persist", []string{
		"age BETWEEN 30 AND 49", "salary < 40000",
	}, []float64{0.41, 0.35})

	const probe = "age BETWEEN 25 AND 44 AND salary >= 80000"
	wantNow := estimate(t, ts1.URL, "persist", probe)
	viBefore := getVersions(t, ts1.URL, "persist")
	accBefore := getAccuracy(t, ts1.URL, "persist")
	if viBefore.Current.ID != 3 || len(viBefore.History) != 2 {
		t.Fatalf("versions before restart = %+v, want current 3 with 2 archived", viBefore)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{SnapshotPath: snap, TrainInterval: time.Hour})
	if got := estimate(t, ts2.URL, "persist", probe); got != wantNow {
		t.Fatalf("estimate after restart = %v, want %v", got, wantNow)
	}
	viAfter := getVersions(t, ts2.URL, "persist")
	if viAfter.Current.ID != viBefore.Current.ID || len(viAfter.History) != len(viBefore.History) {
		t.Fatalf("versions after restart = %+v, want %+v", viAfter, viBefore)
	}
	accAfter := getAccuracy(t, ts2.URL, "persist")
	if accAfter.Accuracy.Samples != accBefore.Accuracy.Samples ||
		accAfter.Accuracy.MAE != accBefore.Accuracy.MAE {
		t.Fatalf("tracker after restart = %+v, want %+v", accAfter.Accuracy, accBefore.Accuracy)
	}

	// Rollback across the restart: version 2's payload survived the file.
	wantOld := viAfter.History[0].ID
	status, body = doJSON(t, "POST", ts2.URL+"/v1/persist/rollback", fmt.Sprintf(`{"version": %d}`, wantOld))
	mustStatus(t, http.StatusOK, status, body)
	if got := estimate(t, ts2.URL, "persist", probe); got == wantNow {
		t.Fatal("rollback after restart did not change the serving model")
	}
}

// TestLifecycleConfigLegacyEntry restores a lifecycle entry whose config
// carries drift_delta and shadow_fraction, as older builds wrote it: the
// estimator comes back with the same policy, window, drift threshold, and
// version history.
func TestLifecycleConfigLegacyEntry(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.json")
	reg, err := NewRegistry(Config{SnapshotPath: snap, TrainInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Create("legacy", walSchema(t),
		quicksel.WithRetrainPolicy(quicksel.PolicyShadow), quicksel.WithAccuracyWindow(64),
		quicksel.WithDriftThreshold(0.3), quicksel.WithVersionHistory(3)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	var file struct {
		Version    int                                   `json:"version"`
		Estimators json.RawMessage                       `json:"estimators"`
		Lifecycles map[string]map[string]json.RawMessage `json:"lifecycles"`
	}
	raw, err := os.ReadFile(snap)
	if err == nil {
		err = json.Unmarshal(raw, &file)
	}
	if err != nil {
		t.Fatal(err)
	}
	file.Lifecycles["legacy"]["config"] = json.RawMessage(
		`{"policy":"shadow","window":64,"drift_threshold":0.3,"drift_delta":0.005,"history":3,"shadow_fraction":0.25}`)
	if raw, err = json.Marshal(&file); err == nil {
		err = os.WriteFile(snap, raw, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}

	reg2, err := NewRegistry(Config{SnapshotPath: snap, TrainInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	st, err := reg2.state("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.life; got.Policy != lifecycle.PolicyShadow || got.Window != 64 ||
		got.DriftThreshold != 0.3 || got.History != 3 {
		t.Fatalf("restored lifecycle config = %+v, want shadow/64/0.3/3", got)
	}
}
