package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"

	"quicksel"
	"quicksel/internal/lifecycle"
	"quicksel/internal/predicate"
	"quicksel/internal/wal"
)

// Write-ahead log integration. When Config.WALDir is set, the registry
// appends every acknowledged observation — plus estimator creates and
// drops — to an internal/wal Log before acknowledging it, so a crash loses
// nothing that a client was told succeeded. Recovery layers
// the log over the snapshot: NewRegistry restores the snapshot file, then
// replays the log suffix the snapshot does not cover, leaving the registry
// in the state an uncrashed run would hold (bit-identically where the
// backend is deterministic).
//
// Two per-estimator watermarks drive the suffix logic, both persisted in
// the registry snapshot:
//
//   - walSeq: the estimator's highest ingested observation. Records at or
//     below it had their prequential accuracy sample recorded before the
//     snapshot captured the tracker, so replay re-buffers them without
//     re-tracking; records above it lost their sample in the crash and are
//     re-tracked against the recovered serving model.
//   - walConsumed: the highest observation a completed training run has
//     taken out of the pending buffer. Records at or below it are inside
//     (or deliberately rejected from) the snapshot's model and are skipped
//     entirely.
//
// A snapshot also computes the registry-wide covered sequence number — the
// highest seq with every record at or below it reflected in the snapshot —
// records it in the file, and compacts the log up to it: segments the
// snapshot makes redundant are deleted.
//
// Observations that a full buffer *dropped* are never appended (the drop
// was reported to the client), so replay cannot resurrect them.

// WAL record types. Logs written by older builds also hold lifecycle
// audit records (types 4-8: promotion, rejection, rollback, drift alarm,
// role change); they carry no state and replay skips them.
const (
	walRecObserve byte = 1
	walRecCreate  byte = 2
	walRecDrop    byte = 3
)

// Observation records use a hand-rolled binary payload — this is the
// ingest hot path, and the JSON codec costs microseconds per record where
// this costs nanoseconds:
//
//	uvarint len(name), name bytes
//	predicate.AppendObservation: 8-byte LE selectivity bits, binary predicate
//
// The rare record types (create, drop) stay JSON for debuggability.

// observeScratch is the reusable encoding state of one observe batch: the
// payload arena and the wal.Record headers pointing into it. Pooled —
// ingest at high QPS must not allocate per batch.
type observeScratch struct {
	arena []byte
	wrecs []wal.Record
}

var observeScratchPool = sync.Pool{New: func() any { return &observeScratch{} }}

// encode frames every record of the batch into the arena.
func (s *observeScratch) encode(name string, recs []ParsedObservation) {
	s.arena = s.arena[:0]
	s.wrecs = s.wrecs[:0]
	for _, rec := range recs {
		start := len(s.arena)
		s.arena = appendObservePayload(s.arena, name, rec.Pred, rec.Sel)
		s.wrecs = append(s.wrecs, wal.Record{Type: walRecObserve, Payload: s.arena[start:len(s.arena):len(s.arena)]})
	}
}

// appendObservePayload encodes one observation record payload.
func appendObservePayload(dst []byte, name string, pred *quicksel.Predicate, sel float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	return predicate.AppendObservation(dst, pred, sel)
}

// decodeObservePayload decodes appendObservePayload's output.
func decodeObservePayload(data []byte) (name string, pred *quicksel.Predicate, sel float64, err error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || uint64(len(data)-k) < n {
		return "", nil, 0, fmt.Errorf("bad name length")
	}
	pred, sel, err = predicate.DecodeObservation(data[k+int(n):])
	return string(data[k : k+int(n)]), pred, sel, err
}

// walCreate carries the initial estimator state, so recovery rebuilds
// estimators created after the last snapshot. The envelope's lifecycle
// section preserves the per-estimator lifecycle options.
type walCreate struct {
	Name     string          `json:"e"`
	Snapshot json.RawMessage `json:"snapshot"`
}

// walNamed is the drop payload.
type walNamed struct {
	Name string `json:"e"`
}

// applyRecord applies one log record to the live registry: creates and
// drops reconcile the estimator map, observations re-enter the pending
// buffers past the snapshot's watermarks. It is the single application
// path shared by startup replay and follower replication (Replicate), so
// a follower's state evolves exactly as a recovery of the primary would.
// Reports whether the record changed registry state.
//
// A record that fails to decode (CRC-valid but semantically unreadable —
// version skew, a bug) is logged and counted, not fatal: serving with one
// lost record beats refusing to serve at all.
func (r *Registry) applyRecord(rec wal.Record) (applied bool) {
	skip := func(what string, err error) {
		r.walLog.Warn("apply: skipping record",
			slog.Uint64("seq", rec.Seq), slog.String("record", what), slog.Any("error", err))
		r.walReplaySkipped.Add(1)
	}
	switch rec.Type {
	case walRecObserve:
		name, pred, sel, err := decodeObservePayload(rec.Payload)
		if err != nil {
			skip("observe", err)
			return false
		}
		return r.replayObservation(rec.Seq, name, pred, sel)
	case walRecCreate:
		var c walCreate
		if err := json.Unmarshal(rec.Payload, &c); err != nil {
			skip("create", err)
			return false
		}
		r.mu.RLock()
		_, exists := r.estimators[c.Name]
		r.mu.RUnlock()
		if exists {
			return false // the snapshot already covers this create
		}
		var snap quicksel.Snapshot
		if err := json.Unmarshal(c.Snapshot, &snap); err != nil {
			skip("create "+c.Name, err)
			return false
		}
		est, err := quicksel.RestoreUntracked(&snap)
		if err != nil {
			skip("create "+c.Name, err)
			return false
		}
		st, _, err := r.newState(c.Name, est, lifecycle.OriginInitial)
		if err != nil {
			skip("create "+c.Name, err)
			return false
		}
		st.walSeq, st.walConsumed = rec.Seq, rec.Seq
		r.mu.Lock()
		r.estimators[c.Name] = st
		r.mu.Unlock()
		return true
	case walRecDrop:
		var d walNamed
		if err := json.Unmarshal(rec.Payload, &d); err != nil {
			skip("drop", err)
			return false
		}
		r.mu.Lock()
		delete(r.estimators, d.Name)
		r.mu.Unlock()
		return true
	default:
		// Audit records from older logs; the state they describe lives in
		// the snapshot.
		return false
	}
}

// replayWAL streams the retained log back into the freshly restored
// registry through applyRecord. It runs inside NewRegistry, before the
// training worker starts and before any request can arrive.
func (r *Registry) replayWAL() error {
	var replayed uint64
	skippedBefore := r.walReplaySkipped.Load()
	// Everything at or below the snapshot's covered watermark is already
	// reflected in the restored registry. Compaction only deletes whole
	// segments, so covered records can survive in the retained prefix —
	// notably stale creates and drops, which would otherwise resurrect a
	// dropped estimator or (worse) delete a restored one whose drop was
	// later undone by a re-create.
	covered := r.walLastCovered.Load()
	err := r.wal.Replay(covered+1, func(rec wal.Record) error {
		if r.applyRecord(rec) {
			replayed++
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("server: wal replay: %w", err)
	}
	r.walReplayed.Add(replayed)
	skipped := r.walReplaySkipped.Load() - skippedBefore
	if replayed > 0 || skipped > 0 {
		r.walLog.Info("replay complete",
			slog.Uint64("replayed", replayed),
			slog.Uint64("skipped", skipped),
			slog.Uint64("covered", covered),
		)
	}
	if r.anyPending() {
		r.kick() // wake is buffered; the worker starts right after replay
	}
	return nil
}

// replayObservation re-ingests one logged observation, mirroring
// ObserveParsed's bookkeeping. Reports whether the record was applied.
func (r *Registry) replayObservation(seq uint64, name string, pred *quicksel.Predicate, sel float64) bool {
	r.mu.RLock()
	st, ok := r.estimators[name]
	r.mu.RUnlock()
	if !ok {
		// Created before the snapshot and dropped before the crash (the
		// later drop record, if retained, is a no-op too).
		return false
	}
	st.mu.Lock()
	if seq <= st.walConsumed {
		st.mu.Unlock()
		return false // already inside the snapshot's model
	}
	fresh := seq > st.walSeq // ingested after the snapshot: its sample died with the process
	serving := st.serving
	st.mu.Unlock()

	est := nan
	if fresh {
		if v, err := serving.Estimate(pred); err == nil {
			est = v
		}
	}

	st.mu.Lock()
	if fresh {
		if est == est {
			st.tracker.Add(est, sel)
		}
		st.observedTotal++
	}
	full := len(st.pending) >= r.cfg.BufferSize
	if !full {
		st.pending = append(st.pending, pendingObs{pred: pred, sel: sel, seq: seq})
		if seq > st.walSeq {
			st.walSeq = seq
		}
	}
	st.mu.Unlock()
	if full {
		// Never drop an acknowledged record at replay: absorb the backlog
		// into the model and retry. (The worker is not running yet, so this
		// is the only drain.)
		_ = r.flushAndTrain(st)
		st.mu.Lock()
		st.pending = append(st.pending, pendingObs{pred: pred, sel: sel, seq: seq})
		if seq > st.walSeq {
			st.walSeq = seq
		}
		st.mu.Unlock()
	}
	return true
}
