package server

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"quicksel"
	"quicksel/internal/wal"
)

// closeAbrupt simulates a crash for tests: it stops the fetch loop and the
// background worker and closes the write-ahead log WITHOUT flushing pending
// observations, training, or persisting a snapshot — everything that was
// only in memory is gone, exactly as with kill -9. (Closing the log itself
// loses nothing: acknowledged records are already on disk.)
func (r *Registry) closeAbrupt() {
	if r.fetcher != nil {
		r.fetcher.Stop()
	}
	r.stopO.Do(func() { close(r.done) })
	r.wg.Wait()
	if r.wal != nil {
		r.wal.Close()
	}
}

func walSchema(t *testing.T) *quicksel.Schema {
	t.Helper()
	var s quicksel.Schema
	if err := json.Unmarshal([]byte(peopleSchema), &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

// walObservations builds a deterministic feedback stream over the people
// schema. Selectivities are the uniform-distribution truth for each
// predicate, so the stream is self-consistent (like real executor feedback)
// and every backend's training converges.
func walObservations(n int, seed int64) []Observation {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Observation, n)
	for i := range out {
		age := 18 + rng.Intn(60)
		salary := 50000 + rng.Float64()*200000
		fracAge := float64(90-age+1) / (90 - 18 + 1)
		fracSal := salary / 300000
		out[i] = Observation{
			Where: fmt.Sprintf("age >= %d AND salary < %.0f", age, salary),
			Sel:   fracAge * fracSal,
		}
	}
	return out
}

func walProbes() []string {
	return []string{
		"age >= 30",
		"age BETWEEN 25 AND 55 AND salary >= 100000",
		"salary < 60000",
		"age >= 70 OR salary >= 250000",
	}
}

// TestCrashRecoveryAllBackends is the crash-recovery property test of the
// durability subsystem: for every estimation method, a registry that
// snapshots mid-stream, keeps ingesting, and then dies without flushing
// must — after restart and WAL replay — hold exactly the state of an
// uncrashed control run fed the same stream with the same snapshot
// boundary: bit-identical estimates, the same realized-accuracy window,
// the same version history, zero acknowledged observations lost.
func TestCrashRecoveryAllBackends(t *testing.T) {
	const first, second = 30, 25
	obs := walObservations(first+second, 11)

	for _, method := range quicksel.Methods() {
		t.Run(method, func(t *testing.T) {
			run := func(dir string, crash bool) *Registry {
				cfg := Config{
					SnapshotPath:  filepath.Join(dir, "snap.json"),
					WALDir:        filepath.Join(dir, "wal"),
					WALSync:       "always",
					TrainInterval: time.Hour, // training only where the test forces it
					Seed:          5,
				}
				reg, err := NewRegistry(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := reg.Create("e", walSchema(t), quicksel.WithMethod(method)); err != nil {
					t.Fatal(err)
				}
				if _, n, err := reg.ObserveBatch("e", obs[:first]); err != nil || n != first {
					t.Fatalf("first half: accepted %d, err %v", n, err)
				}
				if err := reg.SaveSnapshot(); err != nil { // trains the first half, then persists
					t.Fatal(err)
				}
				if _, n, err := reg.ObserveBatch("e", obs[first:]); err != nil || n != second {
					t.Fatalf("second half: accepted %d, err %v", n, err)
				}
				if !crash {
					return reg
				}
				reg.closeAbrupt() // kill -9: second half exists only in the log
				recovered, err := NewRegistry(cfg)
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				return recovered
			}

			control := run(t.TempDir(), false)
			defer control.Close()
			crashed := run(t.TempDir(), true)
			defer crashed.Close()

			for _, reg := range []*Registry{control, crashed} {
				if err := reg.Train("e"); err != nil {
					t.Fatal(err)
				}
			}

			cInfo, rInfo := control.List()[0], crashed.List()[0]
			if rInfo.Observed != cInfo.Observed || rInfo.Observed != first+second {
				t.Errorf("observed_total = %d, control %d, want %d (acknowledged loss)",
					rInfo.Observed, cInfo.Observed, first+second)
			}
			if rInfo.Backlog != 0 {
				t.Errorf("backlog = %d after Train, want 0", rInfo.Backlog)
			}
			for _, probe := range walProbes() {
				want, err := control.Estimate("e", probe)
				if err != nil {
					t.Fatal(err)
				}
				got, err := crashed.Estimate("e", probe)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("estimate(%q) = %v, control %v (must be bit-identical)", probe, got, want)
				}
			}
			cAcc, _ := control.Accuracy("e")
			rAcc, _ := crashed.Accuracy("e")
			if rAcc.Accuracy.Samples != cAcc.Accuracy.Samples ||
				rAcc.Accuracy.MAE != cAcc.Accuracy.MAE ||
				rAcc.Accuracy.MeanQError != cAcc.Accuracy.MeanQError {
				t.Errorf("accuracy window diverged: recovered %+v, control %+v", rAcc.Accuracy, cAcc.Accuracy)
			}
			cVer, _ := control.Versions("e")
			rVer, _ := crashed.Versions("e")
			if rVer.Current.ID != cVer.Current.ID || len(rVer.History) != len(cVer.History) {
				t.Errorf("versions diverged: recovered current=%d history=%d, control current=%d history=%d",
					rVer.Current.ID, len(rVer.History), cVer.Current.ID, len(cVer.History))
			}
		})
	}
}

// TestCrashRecoveryWithoutSnapshot exercises pure-log recovery: the create
// record carries the initial model state, so a registry that never wrote a
// snapshot still comes back whole.
func TestCrashRecoveryWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		WALDir:        filepath.Join(dir, "wal"),
		WALSync:       "always",
		TrainInterval: time.Hour,
		Seed:          5,
	}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Create("e", walSchema(t), quicksel.WithMethod(quicksel.MethodSTHoles)); err != nil {
		t.Fatal(err)
	}
	obs := walObservations(40, 3)
	if _, n, err := reg.ObserveBatch("e", obs); err != nil || n != len(obs) {
		t.Fatalf("accepted %d, err %v", n, err)
	}
	reg.closeAbrupt()

	recovered, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	infos := recovered.List()
	if len(infos) != 1 || infos[0].Name != "e" || infos[0].Method != quicksel.MethodSTHoles {
		t.Fatalf("recovered registry = %+v, want estimator e (sthole)", infos)
	}
	if infos[0].Observed != uint64(len(obs)) {
		t.Fatalf("observed_total = %d, want %d", infos[0].Observed, len(obs))
	}
	if err := recovered.Train("e"); err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.Estimate("e", "age >= 40"); err != nil {
		t.Fatal(err)
	}
}

// TestWALDropSurvivesCrash: a dropped estimator must stay dropped after
// replay, even though its create record is still in the log.
func TestWALDropSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{WALDir: filepath.Join(dir, "wal"), WALSync: "always", TrainInterval: time.Hour}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Create("gone", walSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Create("kept", walSchema(t)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.ObserveBatch("gone", walObservations(5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Drop("gone"); err != nil {
		t.Fatal(err)
	}
	reg.closeAbrupt()

	recovered, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	infos := recovered.List()
	if len(infos) != 1 || infos[0].Name != "kept" {
		t.Fatalf("recovered estimators = %+v, want only %q", infos, "kept")
	}
}

// TestWALStaleDropNotReplayed: compaction keeps whole segments, so a
// drop record covered by the snapshot can survive in the retained prefix.
// Replay must not apply it — it would delete the snapshot-restored
// estimator that a later create resurrected, silently resetting it to an
// initial model.
func TestWALStaleDropNotReplayed(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		SnapshotPath:  filepath.Join(dir, "snap.json"),
		WALDir:        filepath.Join(dir, "wal"),
		WALSync:       "always",
		TrainInterval: time.Hour,
	}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Create("e", walSchema(t), quicksel.WithMethod(quicksel.MethodSTHoles)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.ObserveBatch("e", walObservations(5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Drop("e"); err != nil {
		t.Fatal(err)
	}
	// Recreate under the same name and give it state the initial create
	// record does not hold.
	if err := reg.Create("e", walSchema(t), quicksel.WithMethod(quicksel.MethodSTHoles)); err != nil {
		t.Fatal(err)
	}
	if _, n, err := reg.ObserveBatch("e", walObservations(7, 2)); err != nil || n != 7 {
		t.Fatalf("accepted %d, err %v", n, err)
	}
	if err := reg.SaveSnapshot(); err != nil { // covers the create/drop/create history
		t.Fatal(err)
	}
	reg.closeAbrupt()

	recovered, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	infos := recovered.List()
	if len(infos) != 1 || infos[0].Name != "e" {
		t.Fatalf("recovered estimators = %+v, want the re-created e", infos)
	}
	if infos[0].Observed != 7 {
		t.Fatalf("observed_total = %d, want 7 (stale create/drop replay reset the estimator)", infos[0].Observed)
	}
	// The snapshot's estimator had trained once (SaveSnapshot flushes); a
	// stale-create rebuild would be back at version 1 with everything
	// pending again.
	ver, err := recovered.Versions("e")
	if err != nil {
		t.Fatal(err)
	}
	if ver.Current.ID != 2 {
		t.Fatalf("serving version = %d, want 2 (stale replay rebuilt the initial model)", ver.Current.ID)
	}
}

// TestConcurrentObserveDuringRotation hammers ObserveBatch from many
// goroutines with a segment size small enough to force rotations every few
// batches, while snapshots compact the log underneath — the -race exercise
// of the group-commit writer, the watermark bookkeeping, and compaction.
// Afterwards a crash-recovery pass must account for every acknowledged
// record.
func TestConcurrentObserveDuringRotation(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		SnapshotPath:   filepath.Join(dir, "snap.json"),
		WALDir:         filepath.Join(dir, "wal"),
		WALSync:        "interval",
		WALSegmentSize: 2048, // rotate every few batches
		TrainInterval:  5 * time.Millisecond,
	}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Create("e", walSchema(t), quicksel.WithMethod(quicksel.MethodSTHoles)); err != nil {
		t.Fatal(err)
	}

	const workers, batches, per = 4, 10, 5
	var wg sync.WaitGroup
	var mu sync.Mutex
	acked := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				obs := walObservations(per, int64(w*1000+b))
				_, n, err := reg.ObserveBatch("e", obs)
				if err != nil {
					t.Errorf("ObserveBatch: %v", err)
					return
				}
				mu.Lock()
				acked += n
				mu.Unlock()
			}
		}(w)
	}
	// Concurrent snapshots drive compaction while the writers rotate.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := reg.SaveSnapshot(); err != nil {
				t.Errorf("SaveSnapshot: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	st := reg.wal.Stats()
	if st.Rotations == 0 {
		t.Error("no segment rotations; shrink WALSegmentSize")
	}
	reg.closeAbrupt()

	recovered, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := recovered.List()[0].Observed; got != uint64(acked) {
		t.Fatalf("observed_total after recovery = %d, want %d acknowledged", got, acked)
	}
}

// TestCorruptRegistrySnapshotRecovers: a torn snapshot file must not abort
// the daemon — it is set aside and the registry recovers from the log.
func TestCorruptRegistrySnapshotRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		SnapshotPath:  filepath.Join(dir, "snap.json"),
		WALDir:        filepath.Join(dir, "wal"),
		WALSync:       "always",
		TrainInterval: time.Hour,
	}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Create("e", walSchema(t)); err != nil {
		t.Fatal(err)
	}
	if _, n, err := reg.ObserveBatch("e", walObservations(10, 9)); err != nil || n != 10 {
		t.Fatalf("accepted %d, err %v", n, err)
	}
	if err := reg.Close(); err != nil { // writes a good snapshot
		t.Fatal(err)
	}

	// Tear the snapshot in half — a crashed write without the atomic
	// rename, or disk rot.
	data, err := os.ReadFile(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.SnapshotPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	recovered, err := NewRegistry(cfg)
	if err != nil {
		t.Fatalf("NewRegistry must recover from a torn snapshot, got %v", err)
	}
	defer recovered.Close()
	if _, err := os.Stat(cfg.SnapshotPath + ".corrupt"); err != nil {
		t.Errorf("torn snapshot was not set aside: %v", err)
	}
	infos := recovered.List()
	if len(infos) != 1 || infos[0].Name != "e" {
		t.Fatalf("recovered estimators = %+v, want e rebuilt from the log", infos)
	}
	// The whole stream predates any surviving snapshot, so the log replays
	// the create and all 10 observations.
	if infos[0].Observed != 10 {
		t.Errorf("observed_total = %d, want 10", infos[0].Observed)
	}
}

// TestWALCompactionBoundsLog: repeated snapshot cycles must actually delete
// covered segments rather than letting the log grow forever.
func TestWALCompactionBoundsLog(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		SnapshotPath:   filepath.Join(dir, "snap.json"),
		WALDir:         filepath.Join(dir, "wal"),
		WALSync:        "always",
		WALSegmentSize: 1024,
		TrainInterval:  time.Hour,
	}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Create("e", walSchema(t), quicksel.WithMethod(quicksel.MethodSTHoles)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, _, err := reg.ObserveBatch("e", walObservations(20, int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := reg.SaveSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
	st := reg.wal.Stats()
	if st.CompactedSegments == 0 {
		t.Fatalf("no segments compacted across 6 snapshot cycles: %+v", st)
	}
	ents, err := os.ReadDir(cfg.WALDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) > 2 {
		t.Errorf("%d segments retained after full coverage, want <= 2: %v", len(segs), segs)
	}
}

// TestWALObservationPayloadGolden pins the on-disk bytes of one observation
// record at both logging layers: the library estimator's own log (WithWAL)
// and the registry's log, whose payload is the estimator name followed by
// the same bytes. Existing logs replay only while these bytes hold.
func TestWALObservationPayloadGolden(t *testing.T) {
	const (
		where = "(age BETWEEN 30 AND 40 AND salary < 120000.5) OR NOT age >= 80"
		sel   = 0.1875
		// 8-byte LE selectivity bits, then predicate.AppendBinary.
		estimatorHex = "000000000000c83f0302020201000000000000003e4000000000008044400101000000000000f0ff00000000084cfd400401000000000000005440000000000000f07f"
		// uvarint name length and "people", then the estimator payload.
		registryHex = "0670656f706c65000000000000c83f0302020201000000000000003e4000000000008044400101000000000000f0ff00000000084cfd400401000000000000005440000000000000f07f"
	)
	schema := walSchema(t)
	pred, err := quicksel.Parse(schema, where)
	if err != nil {
		t.Fatal(err)
	}

	estDir := filepath.Join(t.TempDir(), "estimator")
	est, err := quicksel.New(schema, quicksel.WithWAL(estDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := est.Observe(pred, sel); err != nil {
		t.Fatal(err)
	}
	if err := est.Close(); err != nil {
		t.Fatal(err)
	}
	if got := observationPayloadsHex(t, estDir); len(got) != 1 || got[0] != estimatorHex {
		t.Errorf("estimator-level payloads = %q, want [%s]", got, estimatorHex)
	}

	regDir := filepath.Join(t.TempDir(), "registry")
	reg, err := NewRegistry(Config{WALDir: regDir, TrainInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Create("people", schema); err != nil {
		t.Fatal(err)
	}
	if _, n, err := reg.ObserveBatch("people", []Observation{{Where: where, Sel: sel}}); err != nil || n != 1 {
		t.Fatalf("accepted %d, err %v", n, err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if got := observationPayloadsHex(t, regDir); len(got) != 1 || got[0] != registryHex {
		t.Errorf("registry-level payloads = %q, want [%s]", got, registryHex)
	}
}

// observationPayloadsHex reads the log in dir and returns the hex of every
// observation record's payload (record type 1 at both logging layers).
func observationPayloadsHex(t *testing.T, dir string) []string {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var out []string
	err = l.Replay(1, func(rec wal.Record) error {
		if rec.Type == walRecObserve {
			out = append(out, hex.EncodeToString(rec.Payload))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWALLegacyAuditRecords: logs written by older builds interleave
// lifecycle audit records (types 4-8) with the state records. Startup
// replay and follower replication skip them without counting them as
// unreadable, and reach the same estimates as the log without them.
func TestWALLegacyAuditRecords(t *testing.T) {
	src := newPrimary(t, nil)
	if err := src.Create("people", walSchema(t)); err != nil {
		t.Fatal(err)
	}
	if _, n, err := src.ObserveBatch("people", walObservations(40, 11)); err != nil || n != 40 {
		t.Fatalf("accepted %d, err %v", n, err)
	}
	state := shipAll(t, src, 1)
	// Payloads as older builds wrote them: promotion, rejection, rollback,
	// drift alarm, role change; one after every 8th state record.
	audit := []string{`{"e":"people","version":2}`, `{"e":"people","version":3}`,
		`{"e":"people","version":2}`, `{"e":"people"}`, `{"role":"primary"}`}
	var mixed []wal.Record
	for i, rec := range state {
		mixed = append(mixed, wal.Record{Type: rec.Type, Payload: rec.Payload})
		if k := i/8 - 1; i%8 == 0 && k >= 0 {
			mixed = append(mixed, wal.Record{Type: byte(4 + k), Payload: []byte(audit[k])})
		}
	}

	// estimates boots a registry from recs written as a fresh log, trains,
	// and probes it; a non-nil follower takes recs through Replicate instead.
	estimates := func(recs []wal.Record, follower *Registry) []float64 {
		t.Helper()
		reg := follower
		if reg == nil {
			dir := t.TempDir()
			l, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(recs...); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if reg, err = NewRegistry(Config{WALDir: dir, TrainInterval: time.Hour}); err != nil {
				t.Fatal(err)
			}
			defer reg.closeAbrupt()
		} else {
			for i := range recs {
				recs[i].Seq = uint64(i + 1)
			}
			if err := reg.Replicate(recs); err != nil {
				t.Fatalf("Replicate: %v", err)
			}
			if _, err := reg.Promote(); err != nil {
				t.Fatal(err)
			}
		}
		if n := reg.walReplaySkipped.Load(); n != 0 {
			t.Fatalf("%d records counted as skipped, want 0", n)
		}
		if err := reg.Train("people"); err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, probe := range walProbes() {
			v, err := reg.Estimate("people", probe)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
		return out
	}

	want := fmt.Sprint(estimates(state, nil))
	if got := fmt.Sprint(estimates(mixed, nil)); got != want {
		t.Fatalf("replayed with audit records: %s, want %s", got, want)
	}
	if got := fmt.Sprint(estimates(mixed, newFollowerReg(t, nil))); got != want {
		t.Fatalf("replicated with audit records: %s, want %s", got, want)
	}
}

// TestObserveRejectsInvalidRecords: a record no model can learn from is
// refused, with its index, before anything of its batch is queued or logged,
// so it can neither fail every later training run nor block the registry
// snapshot. An older log that holds such records replays, and replicates,
// without them, counting each as skipped.
func TestObserveRejectsInvalidRecords(t *testing.T) {
	reg := newPrimary(t, nil)
	for _, name := range []string{"bad", "good"} {
		if err := reg.Create(name, walSchema(t)); err != nil {
			t.Fatal(err)
		}
	}
	valid := ParsedObservation{Pred: quicksel.Range(0, 30, 50), Sel: 0.3}
	nanBound := quicksel.Range(0, math.NaN(), 30)
	logged := reg.wal.LastSeq()
	for _, rec := range []ParsedObservation{
		{Pred: valid.Pred, Sel: math.NaN()},
		{Pred: valid.Pred, Sel: 1.5},
		{Pred: valid.Pred, Sel: -0.1},
		{Pred: nanBound, Sel: 0.2},
		{Pred: quicksel.Range(5, 0, 1), Sel: 0.2}, // no column 5
		{Pred: nil, Sel: 0.2},
		{Pred: quicksel.And(valid.Pred, nil), Sel: 0.2},
		{Pred: quicksel.And(quicksel.Range(0, 5, 3), quicksel.Range(5, 0, 1)), Sel: 0.2}, // no column 5, after an empty conjunct
	} {
		if _, _, _, err := reg.ObserveParsed("bad", []ParsedObservation{valid, rec}); err == nil || !strings.HasPrefix(err.Error(), "observation 1: ") {
			t.Errorf("ObserveParsed(%v, %g): error %v, want one naming observation 1", rec.Pred, rec.Sel, err)
		}
	}
	if _, _, err := reg.ObserveBatch("bad", []Observation{{Where: "age >= 30", Sel: math.NaN()}}); err == nil {
		t.Error("ObserveBatch accepted a NaN selectivity")
	}
	if got := reg.wal.LastSeq(); got != logged {
		t.Fatalf("refused batches logged %d records", got-logged)
	}
	for _, name := range []string{"bad", "good"} {
		if _, backlog, _, err := reg.ObserveParsed(name, []ParsedObservation{valid}); err != nil || backlog != 1 {
			t.Fatalf("%s: backlog %d, err %v; want only the valid record queued", name, backlog, err)
		}
	}
	state := shipAll(t, reg, 1)
	if err := reg.Train(""); err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}

	// The same log as an older build could have written it.
	older := append(state,
		wal.Record{Type: walRecObserve, Payload: appendObservePayload(nil, "bad", valid.Pred, math.NaN())},
		wal.Record{Type: walRecObserve, Payload: appendObservePayload(nil, "bad", nanBound, 0.2)})
	for i := range older {
		older[i].Seq = uint64(i + 1)
	}
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(older...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := NewRegistry(Config{WALDir: dir, TrainInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.closeAbrupt()
	follower := newFollowerReg(t, nil)
	if err := follower.Replicate(older); err != nil {
		t.Fatal(err)
	}
	if _, err := follower.Promote(); err != nil {
		t.Fatal(err)
	}
	for what, r := range map[string]*Registry{"replay": replayed, "replication": follower} {
		if n := r.walReplaySkipped.Load(); n != 2 {
			t.Errorf("%s: %d records counted as skipped, want 2", what, n)
		}
		if err := r.Train(""); err != nil {
			t.Errorf("%s: Train: %v", what, err)
		}
	}
}

// TestReplaySamplesQError: a restart re-takes the prequential sample of
// every observation the crash lost, in the q-error histogram as well as in
// the accuracy tracker, as ObserveParsed does.
func TestReplaySamplesQError(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		SnapshotPath:  filepath.Join(dir, "snap.json"),
		WALDir:        filepath.Join(dir, "wal"),
		WALSync:       "always",
		TrainInterval: time.Hour,
	}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Create("e", walSchema(t)); err != nil {
		t.Fatal(err)
	}
	const before, lost = 40, 30
	obs := walObservations(before+lost, 3)
	if _, _, err := reg.ObserveBatch("e", obs[:before]); err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.ObserveBatch("e", obs[before:]); err != nil {
		t.Fatal(err)
	}
	reg.closeAbrupt()

	recovered, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.closeAbrupt()
	st, err := recovered.state("e")
	if err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	samples := st.tracker.Report().Samples
	st.mu.Unlock()
	if samples != before+lost {
		t.Fatalf("tracker holds %d samples, want %d", samples, before+lost)
	}
	// The histogram is not persisted: after the restart it holds exactly
	// the replayed samples.
	if got := st.qerrorHist.Snapshot().Total; got != lost {
		t.Fatalf("q-error histogram holds %d samples after replaying %d lost ones", got, lost)
	}
}

// TestWriteFileDurable: a replace leaves exactly the new bytes and no
// temporary file; a replace that fails leaves the old file untouched and
// no temporary file either.
func TestWriteFileDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileDurable(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	// Two failures: the directory is missing, and the rename target is a
	// non-empty directory.
	if err := WriteFileDurable(filepath.Join(dir, "missing", "state.json"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if err := os.MkdirAll(filepath.Join(dir, "busy", "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileDurable(filepath.Join(dir, "busy"), nil); err == nil {
		t.Fatal("replacing a non-empty directory succeeded")
	}

	if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
		t.Fatalf("file holds %q (err %v), want \"new\"", got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "busy", "keep")); err != nil {
		t.Fatalf("failed replace disturbed its target: %v", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 {
		t.Fatalf("directory holds %v (err %v), want only busy and state.json", entries, err)
	}
}
