package server

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
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

// closeAbrupt simulates a crash for tests: it stops the background worker
// and closes the write-ahead log WITHOUT flushing pending observations,
// training, or persisting a snapshot — everything that was only in memory
// is gone, exactly as with kill -9. (Closing the log itself loses nothing:
// acknowledged records are already on disk.)
func (r *Registry) closeAbrupt() {
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
