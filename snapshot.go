package quicksel

import (
	"encoding/json"
	"fmt"
	"io"

	"quicksel/internal/core"
	"quicksel/internal/estimator"
	"quicksel/internal/lifecycle"
)

// SnapshotVersion is the format version of estimator snapshots produced by
// this package. Version 5 adds the observation-coreset fields of the
// QuickSel model state (per-observation weights and the warm-start/coreset
// configuration); version 4 added the WalSeq field (the write-ahead-log
// position the snapshot covers); version 3 added the Lifecycle field
// (accuracy-tracker state and lifecycle configuration); version 2 added the
// Method field and the method-specific State payload. DecodeSnapshot and
// Restore accept versions 1 (QuickSel method only) through 5. The warm-start
// factorization itself is never serialized — a restored model's first
// retrain is always a full train and rebuilds it.
const SnapshotVersion = 5

// Snapshot is the full serializable state of an Estimator: its schema, the
// estimation method backing it, and the method's model state. A restored
// estimator produces identical estimates without retraining, so snapshots
// are suitable for persisting learned state across process restarts (the
// §6 "store metadata in the system catalog" idiom, extended to the whole
// model rather than just the feedback log).
//
// The envelope records the method so a consumer — the quickseld daemon in
// particular — restores the right backend without out-of-band knowledge.
// QuickSel model state stays in the typed Model field (as in version 1);
// every other method serializes into State.
type Snapshot struct {
	Version int     `json:"version"`
	Method  string  `json:"method,omitempty"`
	Schema  *Schema `json:"schema"`
	// Model is the QuickSel mixture-model state; nil for other methods.
	Model *core.Snapshot `json:"model,omitempty"`
	// State is the backend state of non-QuickSel methods; nil for QuickSel.
	State json.RawMessage `json:"state,omitempty"`
	// Lifecycle carries the lifecycle configuration and the realized-accuracy
	// tracker so a restored estimator resumes Accuracy where it left off.
	// Absent in version 1/2 envelopes; a restored v1/v2 estimator starts
	// with a fresh tracker. Bit-identity of estimates never depends on it.
	Lifecycle *SnapshotLifecycle `json:"lifecycle,omitempty"`
	// WalSeq is the write-ahead-log sequence number of the last observation
	// this snapshot covers (version 4; zero without a WAL). Restore with a
	// WithWAL option replays only records after it.
	WalSeq uint64 `json:"wal_seq,omitempty"`
}

// SnapshotLifecycle is the lifecycle section of a version-3 snapshot
// envelope.
type SnapshotLifecycle struct {
	Config  LifecycleConfig         `json:"config"`
	Tracker *lifecycle.TrackerState `json:"tracker,omitempty"`
}

// Snapshot exports the estimator's state. The snapshot shares no storage
// with the estimator and can be marshaled to JSON.
func (e *Estimator) Snapshot() *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := &Snapshot{
		Version:   SnapshotVersion,
		Method:    e.backend.Method(),
		Schema:    &Schema{Cols: append([]Column(nil), e.schema.Cols...)},
		Lifecycle: &SnapshotLifecycle{Config: e.life},
		WalSeq:    e.walSeq,
	}
	if e.tracker != nil {
		s.Lifecycle.Tracker = e.tracker.State()
	}
	if m := estimator.ModelSnapshot(e.backend); m != nil {
		s.Model = m
		return s
	}
	state, err := e.backend.Snapshot()
	if err != nil {
		// The backend states are plain JSON-marshalable structs; this is
		// unreachable in practice. Leave State nil: Restore rejects the
		// incomplete envelope, and the serving registry refuses to persist
		// one over a good snapshot file.
		return s
	}
	s.State = state
	return s
}

// Restore rebuilds an estimator from a snapshot, validating the version,
// the schema, the method, and the model state's internal consistency.
//
// Options may attach a write-ahead log (WithWAL and friends): the log's
// records after the snapshot's WalSeq are replayed into the restored model
// — the checkpoint-plus-suffix recovery path — and subsequent Observe
// calls append to the log. Options that would alter the model itself
// (method, seed, budgets) are ignored: that configuration is part of the
// snapshot.
func Restore(s *Snapshot, opts ...Option) (*Estimator, error) { return restore(s, true, opts) }

// RestoreUntracked is Restore with in-process accuracy tracking disabled:
// Observe skips the prequential sample and Accuracy reports an empty
// window. The serving registry uses it for training clones and reloaded
// serving models — it records realized accuracy registry-side, across
// model swaps, so a per-model tracker would only duplicate work on the
// training path and persist meaningless samples.
func RestoreUntracked(s *Snapshot, opts ...Option) (*Estimator, error) {
	return restore(s, false, opts)
}

func restore(s *Snapshot, track bool, opts []Option) (*Estimator, error) {
	if s == nil {
		return nil, fmt.Errorf("quicksel: nil snapshot")
	}
	if s.Version < 1 || s.Version > SnapshotVersion {
		return nil, fmt.Errorf("quicksel: unsupported snapshot version %d (want 1..%d)", s.Version, SnapshotVersion)
	}
	if s.Schema == nil {
		return nil, fmt.Errorf("quicksel: snapshot has no schema")
	}
	schema, err := NewSchema(s.Schema.Cols...)
	if err != nil {
		return nil, fmt.Errorf("quicksel: snapshot schema: %w", err)
	}
	method := s.Method
	if method == "" {
		method = MethodQuickSel // version 1, or an elided default
	}
	var backend estimator.Backend
	if method == MethodQuickSel {
		if s.Model == nil {
			return nil, fmt.Errorf("quicksel: snapshot has no model state")
		}
		if s.Model.Config.Dim != schema.Dim() {
			return nil, fmt.Errorf("quicksel: snapshot model has dim %d, schema has %d",
				s.Model.Config.Dim, schema.Dim())
		}
		backend, err = estimator.NewQuickSelFromModelSnapshot(s.Model)
	} else {
		if s.Version == 1 {
			return nil, fmt.Errorf("quicksel: version 1 snapshot cannot carry method %q", s.Method)
		}
		if len(s.State) == 0 {
			return nil, fmt.Errorf("quicksel: snapshot has no %q state", method)
		}
		backend, err = estimator.Restore(method, s.State)
	}
	if err != nil {
		return nil, fmt.Errorf("quicksel: %w", err)
	}
	if backend.Dim() != schema.Dim() {
		return nil, fmt.Errorf("quicksel: snapshot %s state has dim %d, schema has %d",
			method, backend.Dim(), schema.Dim())
	}
	var lcfg LifecycleConfig
	var tstate *lifecycle.TrackerState
	if s.Lifecycle != nil {
		lcfg = s.Lifecycle.Config
		tstate = s.Lifecycle.Tracker
	}
	if _, err := lifecycle.ParsePolicy(string(lcfg.Policy)); err != nil {
		return nil, fmt.Errorf("quicksel: snapshot lifecycle: %w", err)
	}
	e := &Estimator{schema: schema, backend: backend, life: lcfg, walSeq: s.WalSeq}
	if track {
		e.tracker = lifecycle.RestoreTracker(lcfg, tstate)
	}
	var cfg settings
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.walDir != "" {
		if err := e.attachWAL(cfg.walDir, cfg.wal, s.WalSeq, false); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// EncodeSnapshot writes the estimator's snapshot as indented JSON.
func (e *Estimator) EncodeSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e.Snapshot())
}

// DecodeSnapshot reads a JSON snapshot (as written by EncodeSnapshot) and
// restores the estimator.
func DecodeSnapshot(r io.Reader) (*Estimator, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("quicksel: snapshot decode: %w", err)
	}
	return Restore(&s)
}
