package quicksel

import (
	"encoding/json"
	"fmt"
	"io"

	"quicksel/internal/predicate"
	"quicksel/internal/wal"
)

// Estimator-level durability: WithWAL attaches a write-ahead observation
// log (internal/wal) to a single Estimator, giving library embedders the
// same crash-safety the quickseld daemon gets from its registry-level log.
// Every Observe is appended and group-committed before it returns; New with
// the same WithWAL directory replays the whole log into a fresh model, and
// Restore replays only the suffix after the snapshot's recorded log
// position (Snapshot.WalSeq). Checkpoint writes a snapshot and compacts the
// log segments it makes redundant, bounding both disk usage and the next
// restart's replay time.
//
// Replay reproduces the live run because appends and model updates happen
// under the same estimator lock (log order is apply order) and every
// backend is deterministic in its inputs.

// walRecObservation is the only estimator-level record type: one observed
// (predicate, selectivity) pair in the binary predicate.AppendObservation
// form, because observation appends are the hot path and the JSON codec
// costs microseconds per record.
const walRecObservation byte = 1

// attachWAL opens the log in dir, replays records after `from` into the
// estimator, and leaves the log attached for subsequent Observe calls.
// fresh marks a New-built (empty) estimator, which must see the log from
// record 1 — if a checkpoint has compacted the prefix, the caller is
// holding state that only Restore(snapshot) can supply.
func (e *Estimator) attachWAL(dir string, opts wal.Options, from uint64, fresh bool) error {
	l, err := wal.Open(dir, opts)
	if err != nil {
		return fmt.Errorf("quicksel: %w", err)
	}
	first, last := l.FirstSeq(), l.LastSeq()
	if fresh {
		if last > 0 && first != 1 {
			l.Close()
			return fmt.Errorf("quicksel: wal in %s was compacted by a checkpoint (oldest retained record %d); restore the checkpoint snapshot with Restore and the same WithWAL option instead of New", dir, first)
		}
	} else {
		if last < from {
			l.Close()
			return fmt.Errorf("quicksel: wal in %s ends at record %d but the snapshot was taken at %d; wrong directory?", dir, last, from)
		}
		if first != 0 && first > from+1 {
			l.Close()
			return fmt.Errorf("quicksel: wal in %s starts at record %d but the snapshot only covers up to %d; a newer checkpoint compacted the gap — restore that checkpoint instead", dir, first, from)
		}
	}
	err = l.Replay(from+1, func(rec wal.Record) error {
		if rec.Type != walRecObservation {
			return nil
		}
		p, sel, err := predicate.DecodeObservation(rec.Payload)
		if err != nil {
			return fmt.Errorf("quicksel: wal record %d: %w", rec.Seq, err)
		}
		boxes, err := p.Boxes(e.schema)
		if err != nil {
			return fmt.Errorf("quicksel: wal record %d: %w", rec.Seq, err)
		}
		e.mu.Lock()
		err = e.ingestLocked(boxes, sel)
		e.mu.Unlock()
		if err != nil {
			return fmt.Errorf("quicksel: wal record %d: %w", rec.Seq, err)
		}
		return nil
	})
	if err != nil {
		l.Close()
		return err
	}
	e.mu.Lock()
	e.wal = l
	e.walSeq = l.LastSeq()
	e.mu.Unlock()
	return nil
}

// Checkpoint writes the estimator's snapshot as indented JSON to w (like
// EncodeSnapshot) and then compacts the write-ahead log up to the
// snapshot's position: log segments whose observations the snapshot
// already covers are deleted. Restore the snapshot with the same WithWAL
// option to resume from the checkpoint plus the replayed suffix. Write the
// snapshot to stable storage — the compaction assumes w durably holds what
// the deleted segments held.
func (e *Estimator) Checkpoint(w io.Writer) error {
	snap := e.Snapshot()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return err
	}
	if e.wal != nil {
		if _, err := e.wal.Compact(snap.WalSeq); err != nil {
			return fmt.Errorf("quicksel: checkpoint compaction: %w", err)
		}
	}
	return nil
}

// Close releases the estimator's write-ahead log, flushing any staged
// appends. It is a no-op for estimators without one. The estimator remains
// usable in memory, but further Observe calls fail: close only on the way
// out.
func (e *Estimator) Close() error {
	e.mu.Lock()
	l := e.wal
	e.mu.Unlock()
	if l == nil {
		return nil
	}
	return l.Close()
}

// WALStats reports the attached write-ahead log's counters and watermarks
// (zero without one) — appends, group-commit flushes, fsyncs, rotations,
// compactions, and the retained footprint.
func (e *Estimator) WALStats() wal.Stats {
	e.mu.Lock()
	l := e.wal
	e.mu.Unlock()
	if l == nil {
		return wal.Stats{}
	}
	return l.Stats()
}
