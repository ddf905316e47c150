package quicksel

import (
	"fmt"
	"sync"

	"quicksel/internal/core"
	"quicksel/internal/estimator"
	"quicksel/internal/geom"
	"quicksel/internal/lifecycle"
	"quicksel/internal/par"
	"quicksel/internal/predicate"
	"quicksel/internal/wal"
)

// Train modes reported by Estimator.TrainMode.
const (
	// TrainModeFull is a training run that refit the model from its whole
	// retained state (the default, and the only mode of most methods).
	TrainModeFull = core.TrainModeFull
	// TrainModeIncremental is a training run that re-solved from the
	// warm-start factorization kept by WithWarmStart: rank-1 updates for the
	// new feedback instead of a full refactorization.
	TrainModeIncremental = core.TrainModeIncremental
)

// Re-exported schema and predicate vocabulary. These alias the internal
// implementation so the whole repository shares one source of truth; the
// public package is the only importable entry point.
type (
	// Schema describes the columns of the relation whose selectivities are
	// being learned. Build one with NewSchema.
	Schema = predicate.Schema
	// Column describes a single attribute: its name, kind, and value range.
	Column = predicate.Column
	// ColumnKind distinguishes real, integer, and categorical columns.
	ColumnKind = predicate.ColumnKind
	// Predicate is a boolean combination of range and equality constraints.
	Predicate = predicate.Predicate
)

// Column kinds.
const (
	// Real columns take continuous values in [Min, Max].
	Real = predicate.Real
	// Integer columns take integer values in {Min, ..., Max}.
	Integer = predicate.Integer
	// Categorical columns enumerate categories identified with integers
	// {Min, ..., Max}.
	Categorical = predicate.Categorical
)

// NewSchema validates and returns a schema over the given columns.
func NewSchema(cols ...Column) (*Schema, error) { return predicate.NewSchema(cols...) }

// Predicate constructors; see the package documentation for semantics.
var (
	// All matches every row (selectivity 1).
	All = predicate.All
	// Range restricts a column to the half-open interval [lo, hi).
	Range = predicate.Range
	// AtLeast restricts a column to values >= lo.
	AtLeast = predicate.AtLeast
	// AtMost restricts a column to values < hi.
	AtMost = predicate.AtMost
	// Eq is an equality constraint on a discrete column.
	Eq = predicate.Eq
	// In is a disjunction of equality constraints on a discrete column.
	In = predicate.In
	// And is conjunction.
	And = predicate.And
	// Or is disjunction.
	Or = predicate.Or
	// Not is negation.
	Not = predicate.Not
)

// Estimator is the public face of the library: a selectivity-learning model
// bound to a schema. It is safe for concurrent use; Observe and Estimate
// may be called from multiple goroutines. Estimates of a fitted model run
// side by side under a shared lock, and EstimateBatch spreads one batch over
// GOMAXPROCS goroutines; Observe, Train, Snapshot and the other methods
// that change or copy the model run alone, after the estimates in progress.
//
// An Estimator is backed by one of six interchangeable estimation methods
// (see WithMethod): QuickSel's mixture model by default, or one of the
// paper's baselines. All methods share the same feedback/estimate/snapshot
// contract; only accuracy, training cost, and memory differ.
//
// Estimates are produced lazily for methods with a fitting step: the first
// Estimate after one or more Observe calls (re)trains the model. Call Train
// explicitly to control when the fitting cost is paid.
type Estimator struct {
	// mu is held shared by an estimate whose backend reads without writing
	// (see lockRead) and exclusively by everything else.
	mu      sync.RWMutex
	schema  *Schema
	backend estimator.Backend

	// life is the lifecycle configuration exactly as the caller specified it
	// (zero fields unset); the serving registry layers it over its own
	// defaults. tracker is the realized-accuracy window behind Accuracy,
	// running on the resolved defaults.
	life    lifecycle.Config
	tracker *lifecycle.Tracker

	// wal is the attached write-ahead observation log (nil without
	// WithWAL); walSeq is the highest log sequence number this estimator
	// has staged, recorded in snapshots so Restore knows where replay
	// starts. Guarded by mu.
	wal    *wal.Log
	walSeq uint64
}

// LifecycleConfig is the model-lifecycle tuning carried by an Estimator:
// retrain policy, accuracy window, drift threshold, and version-history
// bound. It aliases the internal lifecycle package's config, the same way
// Schema aliases the internal predicate package.
type LifecycleConfig = lifecycle.Config

// Accuracy summarizes an estimator's realized accuracy: rolling-window MAE
// and q-error plus the drift detector's state. See Estimator.Accuracy.
type Accuracy = lifecycle.Report

// New returns an estimator for the given schema. Options select the
// estimation method (default: MethodQuickSel) and tune the paper's defaults
// (subpopulation budget, penalty weight, seed, solver, bucket caps). The
// schema is validated as NewSchema does, which matters for one decoded from
// JSON.
func New(schema *Schema, opts ...Option) (*Estimator, error) {
	if schema == nil {
		return nil, fmt.Errorf("quicksel: nil schema")
	}
	if err := schema.Validate(); err != nil {
		return nil, fmt.Errorf("quicksel: %w", err)
	}
	var cfg settings
	cfg.model.Dim = schema.Dim()
	for _, o := range opts {
		o(&cfg)
	}
	if _, err := lifecycle.ParsePolicy(string(cfg.lifecycle.Policy)); err != nil {
		return nil, fmt.Errorf("quicksel: %w", err)
	}
	b, err := estimator.New(cfg.model)
	if err != nil {
		return nil, err
	}
	e := &Estimator{
		schema:  schema,
		backend: b,
		life:    cfg.lifecycle,
		tracker: lifecycle.NewTracker(cfg.lifecycle),
	}
	if cfg.walDir != "" {
		// A pre-existing log replays in full: New with the same WithWAL
		// directory is the restart path for embedders that never snapshot.
		if err := e.attachWAL(cfg.walDir, cfg.wal, 0, true); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Schema returns the estimator's schema.
func (e *Estimator) Schema() *Schema { return e.schema }

// Method returns the name of the estimation method backing the estimator
// (e.g. "quicksel", "sthole"; see WithMethod).
func (e *Estimator) Method() string { return e.backend.Method() }

// Observe feeds back the actual selectivity of an executed predicate. The
// predicate may contain conjunctions, disjunctions, and negations; it is
// lowered to disjoint hyperrectangles and each rectangle is recorded with
// its share of the observed selectivity (proportional to volume), matching
// the paper's inclusion-exclusion treatment of non-conjunctive predicates.
// Observe also feeds the realized-accuracy tracker: the current model's
// estimate for the predicate is recorded against the observed actual, so
// Accuracy reports what the model would have answered before absorbing the
// feedback. When a lazily-fitted model (quicksel, isomer, maxent) has an
// unfitted batch pending, the sample is skipped rather than forcing a refit
// on the observe path.
func (e *Estimator) Observe(p *Predicate, trueSelectivity float64) error {
	boxes, err := p.Boxes(e.schema)
	if err != nil {
		return fmt.Errorf("quicksel: observe: %w", err)
	}
	var payload []byte
	if e.wal != nil {
		// Encode the log record outside the lock; the append itself is
		// staged under the lock so log order equals apply order, which is
		// what makes replay reproduce the live run.
		payload = predicate.AppendObservation(nil, p, trueSelectivity)
	}
	e.mu.Lock()
	err = e.ingestLocked(boxes, trueSelectivity)
	var wait func() error
	if err == nil && e.wal != nil {
		var last uint64
		_, last, wait = e.wal.Enqueue([]wal.Record{{Type: walRecObservation, Payload: payload}})
		e.walSeq = last
	}
	e.mu.Unlock()
	if wait != nil {
		// Don't acknowledge until the record reaches the log's durability
		// point (group-committed with concurrent observers).
		if werr := wait(); werr != nil {
			return fmt.Errorf("quicksel: observe: wal append: %w", werr)
		}
	}
	return err
}

// ingestLocked records the prequential accuracy sample and feeds the
// lowered boxes to the backend; the caller holds e.mu. Both Observe and
// write-ahead-log replay run through it, which is what keeps a replayed
// estimator bit-identical to the live one.
func (e *Estimator) ingestLocked(boxes []geom.Box, trueSelectivity float64) error {
	// A model with observations awaiting a lazy fit skips the sample rather
	// than pay the refit here; one that has observed nothing fits only the
	// uniform prior, so it is sampled.
	if e.tracker != nil && (!estimator.FitPending(e.backend) || e.backend.Stats().Observed == 0) {
		if est, err := e.backend.Estimate(boxes); err == nil {
			e.tracker.Add(est, trueSelectivity)
		}
	}
	switch len(boxes) {
	case 0:
		return nil // predicate selects nothing; nothing to learn
	case 1:
		return e.backend.Observe(boxes[0], trueSelectivity)
	default:
		// Split the observed mass across the disjoint pieces by volume.
		var total float64
		for _, b := range boxes {
			total += b.Volume()
		}
		if total == 0 {
			return nil
		}
		for _, b := range boxes {
			if err := e.backend.Observe(b, trueSelectivity*b.Volume()/total); err != nil {
				return err
			}
		}
		return nil
	}
}

// Train fits the model to all observations so far (for methods with a
// fitting step; for others it forces a statistics refresh). Estimate trains
// lazily, so calling Train is optional; it exists to let callers schedule
// the fitting cost (e.g. off the query path).
func (e *Estimator) Train() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.backend.Train()
}

// TrainMode reports how the last training run fitted the model:
// "incremental" when it re-solved from the warm-start factorization (see
// WithWarmStart), "full" otherwise. Methods without an incremental path
// always report "full".
func (e *Estimator) TrainMode() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return estimator.TrainMode(e.backend)
}

// CloneForTraining returns an untracked deep copy of the estimator for the
// clone-train-swap retraining cycle: the quickseld registry trains the clone
// off the serving path, then promotes it. Unlike a snapshot round trip
// (RestoreUntracked), the in-process clone keeps QuickSel's warm-start
// factorization, so a cloned model can retrain incrementally. Like
// RestoreUntracked, the clone has no accuracy tracker and no attached
// write-ahead log, but it carries the source's WAL position so a snapshot
// taken from the trained clone records the correct replay point.
func (e *Estimator) CloneForTraining() (*Estimator, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	b, err := estimator.Clone(e.backend)
	if err != nil {
		return nil, fmt.Errorf("quicksel: clone: %w", err)
	}
	return &Estimator{
		schema:  e.schema,
		backend: b,
		life:    e.life,
		walSeq:  e.walSeq,
	}, nil
}

// Estimate returns the estimated selectivity of the predicate, in [0, 1].
// A NaN bound in the predicate is an error, as it is for Observe.
func (e *Estimator) Estimate(p *Predicate) (float64, error) {
	boxes, err := p.Boxes(e.schema)
	if err != nil {
		return 0, fmt.Errorf("quicksel: estimate: %w", err)
	}
	shared := e.lockRead()
	defer e.unlockRead(shared)
	return e.backend.Estimate(boxes)
}

// lockRead takes e.mu for an estimate and reports whether it is held
// shared. It is when the backend has no lazy fit pending, so its Estimate
// writes nothing and any number of estimates can run at once; otherwise the
// estimate that pays the fit holds the lock exclusively, as every write
// does. Release it with unlockRead.
func (e *Estimator) lockRead() (shared bool) {
	e.mu.RLock()
	if !estimator.FitPending(e.backend) {
		return true
	}
	e.mu.RUnlock()
	e.mu.Lock()
	return false
}

func (e *Estimator) unlockRead(shared bool) {
	if shared {
		e.mu.RUnlock()
	} else {
		e.mu.Unlock()
	}
}

// EstimateBatch returns the estimated selectivity of each predicate, in
// input order. All predicates are lowered to boxes before the estimator
// lock is taken, in one pass split over GOMAXPROCS goroutines, and the lock
// is then acquired once for the whole batch. Under it the clauses are split
// over GOMAXPROCS goroutines again (a batch too short to split runs on the
// caller's); each answer is bit-identical to Estimate's for the same
// predicate. A batch that pays a pending lazy fit runs in order on the
// caller's goroutine, its first clause paying the fit. A lowering or
// estimation error fails the whole batch and names the lowest offending
// index, as a clause-by-clause pass would: the lowest lowering error, else
// the lowest estimation error.
func (e *Estimator) EstimateBatch(preds []*Predicate) ([]float64, error) {
	lowered, err := e.lowerBatch(len(preds), func(i int) (*Predicate, error) { return preds[i], nil })
	if err != nil {
		return nil, err
	}
	return e.estimateLowered(lowered)
}

// EstimateBatchWhere is EstimateBatch with parsed WHERE clauses. Parsing
// joins lowering in the pass outside the estimator lock, and the error is
// the one a serial pass gives: the lowest-index parse error, else the
// lowest lowering error, else the lowest estimation error.
func (e *Estimator) EstimateBatchWhere(wheres []string) ([]float64, error) {
	lowered, err := e.lowerBatch(len(wheres), func(i int) (*Predicate, error) { return Parse(e.schema, wheres[i]) })
	if err != nil {
		return nil, err
	}
	return e.estimateLowered(lowered)
}

// lowerBatch lowers the n predicates that pred returns, split over
// GOMAXPROCS goroutines; parsing and lowering read only the immutable
// schema, and each clause writes only its own slots. A predicate that pred
// fails to produce is an error ahead of every lowering error, whatever its
// index.
func (e *Estimator) lowerBatch(n int, pred func(i int) (*Predicate, error)) ([][]geom.Box, error) {
	lowered := make([][]geom.Box, n)
	predErrs := make([]error, n)
	lowerErrs := make([]error, n)
	par.For(0, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p, err := pred(i)
			if err != nil {
				predErrs[i] = err
				continue
			}
			lowered[i], lowerErrs[i] = p.Boxes(e.schema)
		}
	})
	if err := lowestError(predErrs); err != nil {
		return nil, err
	}
	if err := lowestError(lowerErrs); err != nil {
		return nil, err
	}
	return lowered, nil
}

// estimateLowered estimates every lowered clause under one acquisition of
// the estimator lock.
func (e *Estimator) estimateLowered(lowered [][]geom.Box) ([]float64, error) {
	out := make([]float64, len(lowered))
	errs := make([]error, len(lowered))
	shared := e.lockRead()
	defer e.unlockRead(shared)
	workers := 1 // a batch paying a lazy fit runs in order on this goroutine
	if shared {
		workers = 0 // GOMAXPROCS
	}
	// Each clause writes only its own slots, par.For's contract. The workers
	// call the backend directly: a nested RLock would deadlock once a writer
	// queues behind the one this goroutine holds.
	par.For(workers, len(lowered), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if out[i], errs[i] = e.backend.Estimate(lowered[i]); errs[i] != nil {
				return // a later clause of this chunk cannot hold the lowest-index error
			}
		}
	})
	if err := lowestError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// lowestError returns the batch error for the lowest-index failed clause,
// or nil.
func lowestError(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("quicksel: estimate %d: %w", i, err)
		}
	}
	return nil
}

// Accuracy reports the estimator's realized accuracy: MAE and q-error over
// the rolling window of (estimate, observed-actual) pairs recorded by
// Observe, plus the Page–Hinkley drift detector's state. A fresh estimator
// (or one that has only observed, never been fitted) reports zero samples,
// as does one rebuilt with RestoreUntracked. Tune the window with
// WithAccuracyWindow and the detector with WithDriftThreshold.
func (e *Estimator) Accuracy() Accuracy {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tracker == nil {
		return Accuracy{}
	}
	return e.tracker.Report()
}

// LifecycleConfig returns the lifecycle tuning exactly as specified at
// construction (zero fields were left unset). The serving registry layers
// it over the daemon's defaults.
func (e *Estimator) LifecycleConfig() LifecycleConfig { return e.life }

// NumObserved returns the number of observed queries recorded so far.
func (e *Estimator) NumObserved() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.backend.Stats().Observed
}

// ParamCount returns the number of model parameters — subpopulation weights
// (QuickSel), bucket frequencies (histogram methods), sampled coordinates,
// or grid cells — of the current model; 0 before the first training for
// methods that fit lazily.
func (e *Estimator) ParamCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.backend.Stats().Params
}

// ParseError is the error type returned by Parse for malformed predicate
// text; it carries the byte offset of the problem.
type ParseError = predicate.ParseError

// Parse builds a Predicate from SQL-style WHERE text against the schema,
// e.g. "age BETWEEN 30 AND 39 AND salary >= 1e5 OR state IN (3, 7)".
// Supported: AND/OR/NOT, parentheses, <, <=, >, >=, BETWEEN, and =, !=, IN
// on discrete columns — exactly the predicate class of the paper (§2.2).
func Parse(schema *Schema, input string) (*Predicate, error) {
	return predicate.Parse(schema, input)
}

// ObserveWhere is Observe with a parsed WHERE clause.
func (e *Estimator) ObserveWhere(where string, trueSelectivity float64) error {
	p, err := Parse(e.schema, where)
	if err != nil {
		return err
	}
	return e.Observe(p, trueSelectivity)
}

// EstimateWhere is Estimate with a parsed WHERE clause.
func (e *Estimator) EstimateWhere(where string) (float64, error) {
	p, err := Parse(e.schema, where)
	if err != nil {
		return 0, err
	}
	return e.Estimate(p)
}
