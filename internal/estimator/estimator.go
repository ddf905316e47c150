// Package estimator defines the pluggable selectivity-estimation backend
// behind the public quicksel API and the quickseld serving daemon. Every
// method of the paper's evaluation (§5.1) — QuickSel itself plus the
// sampling, scan-histogram, STHoles, ISOMER, and max-entropy baselines —
// implements one Backend contract, so the daemon can serve any of them
// behind the same HTTP surface and the benchmark CLI can race them over the
// same workload.
//
// The contract deliberately speaks the repository's geometric currency:
// predicates arrive already lowered to disjoint normalized boxes
// (internal/predicate), an observation is one (box, selectivity) feedback
// record, and an estimate is requested for a union of disjoint boxes.
//
// Backends are not safe for concurrent use, with one exception: while
// FitPending reports false, Estimate writes nothing and may run on many
// goroutines at once, provided no other method runs. The public
// quicksel.Estimator holds its lock shared for exactly those estimates and
// exclusively for every other call.
package estimator

import (
	"encoding/json"
	"fmt"
	"sort"

	"quicksel/internal/core"
	"quicksel/internal/geom"
)

// Method names accepted by New and recorded in snapshots.
const (
	// QuickSel is the paper's method: a uniform mixture model fitted by a
	// penalized quadratic program (internal/core). Best accuracy per
	// parameter in the paper's comparison; training costs one SPD solve.
	QuickSel = "quicksel"
	// STHoles is the error-feedback histogram baseline (internal/sthole):
	// cheap per-observation updates and a bounded bucket tree, at the
	// accuracy loss Figure 4 reports.
	STHoles = "sthole"
	// Isomer is the ISOMER max-entropy histogram (internal/isomer) running
	// the published iterative-scaling update. Strong accuracy; the disjoint
	// partition grows multiplicatively with observed queries.
	Isomer = "isomer"
	// MaxEnt is the same max-entropy histogram solved with the optimized
	// incremental iterative-scaling update (internal/maxent): the same fixed
	// point as Isomer at a much lower per-iteration cost.
	MaxEnt = "maxent"
	// Sample is the AutoSample baseline (internal/sample) over a synthetic
	// table materialized from the feedback stream; see scan.go.
	Sample = "sample"
	// ScanHist is the AutoHist equiwidth-grid baseline (internal/scanhist)
	// over the same synthetic table.
	ScanHist = "scanhist"
)

// Methods returns the valid method names, sorted.
func Methods() []string {
	out := []string{QuickSel, STHoles, Isomer, MaxEnt, Sample, ScanHist}
	sort.Strings(out)
	return out
}

// UnknownMethodError reports a method name that no backend implements. Its
// message lists the valid names so API clients can self-correct.
type UnknownMethodError struct{ Method string }

func (e *UnknownMethodError) Error() string {
	return fmt.Sprintf("estimator: unknown method %q (valid methods: %v)", e.Method, Methods())
}

// Config tunes a backend at construction time. Dim is required; every other
// field keeps its method's default when zero, and fields for other methods
// are ignored.
type Config struct {
	// Method selects the backend; "" means QuickSel.
	Method string
	// Config is QuickSel's configuration; see the core package for
	// semantics and defaults. Its Dim (the dimensionality of the normalized
	// domain) and Seed apply to every method: Seed drives every
	// pseudo-random draw (QuickSel subpopulation generation, the
	// scan-backed synthetic rows), and backends are fully deterministic in
	// it.
	core.Config

	// MaxBuckets bounds the bucket tree (STHoles) or the disjoint partition
	// (Isomer, MaxEnt). 0 keeps the method's serving default.
	MaxBuckets int

	// SampleSize is the row budget of the Sample backend (default 1000).
	SampleSize int
	// GridBuckets is the cell budget of the ScanHist backend (default 1000).
	GridBuckets int
	// RowsPerObservation is how many synthetic rows the scan-backed methods
	// materialize per feedback record (default 128).
	RowsPerObservation int
}

// Stats is the common status snapshot every backend reports.
type Stats struct {
	// Method is the backend's method name.
	Method string `json:"method"`
	// Observed counts the feedback records absorbed so far.
	Observed int `json:"observed"`
	// Params counts the model parameters the method currently holds
	// (subpopulation weights, bucket frequencies, sampled coordinates, or
	// grid cells — the quantity Figure 4 of the paper tracks).
	Params int `json:"params"`
}

// Backend is the pluggable estimator contract. Observe ingests one
// (normalized box, true selectivity) feedback record; Estimate answers the
// selectivity of a union of disjoint normalized boxes; Train forces the
// method's fitting/refresh step (methods that train lazily or eagerly treat
// it as a refresh); Snapshot serializes the full state for Restore.
type Backend interface {
	Method() string
	Dim() int
	Observe(box geom.Box, sel float64) error
	Estimate(boxes []geom.Box) (float64, error)
	Train() error
	Snapshot() (json.RawMessage, error)
	Stats() Stats
}

// New builds a backend for cfg.Method.
func New(cfg Config) (Backend, error) {
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("estimator: Dim must be >= 1, got %d", cfg.Dim)
	}
	switch cfg.Method {
	case "", QuickSel:
		return newQuickSel(cfg)
	case STHoles:
		return newSTHoles(cfg)
	case Isomer, MaxEnt:
		return newIsomer(cfg)
	case Sample, ScanHist:
		return newScan(cfg)
	default:
		return nil, &UnknownMethodError{Method: cfg.Method}
	}
}

// Restore rebuilds a backend of the given method from the state produced by
// its Snapshot. The restored backend serves bit-identical estimates.
func Restore(method string, state json.RawMessage) (Backend, error) {
	if len(state) == 0 {
		return nil, fmt.Errorf("estimator: empty %q backend state", method)
	}
	switch method {
	case "", QuickSel:
		return restoreQuickSel(state)
	case STHoles:
		return restoreSTHoles(state)
	case Isomer, MaxEnt:
		return restoreIsomer(method, state)
	case Sample, ScanHist:
		return restoreScan(method, state)
	default:
		return nil, &UnknownMethodError{Method: method}
	}
}

// lazyFitter is implemented by backends whose Estimate pays a deferred
// fitting step until the model is fitted (QuickSel's QP solve, the
// max-entropy scaling solve). Incremental backends don't implement it.
type lazyFitter interface {
	fitPending() bool
}

// FitPending reports whether the backend's next Estimate would run a lazy
// training pass, and so write: it holds observations it has not yet fitted,
// or it has never been fitted at all. With FitPending false, Estimate only
// reads. The accuracy tracker also uses this to skip realized-accuracy
// sampling rather than force a refit on the observe path.
func FitPending(b Backend) bool {
	if lf, ok := b.(lazyFitter); ok {
		return lf.fitPending()
	}
	return false
}

// cloner is implemented by backends that can deep-copy themselves in
// process, preserving state a snapshot round trip would lose (QuickSel's
// warm-start factorization).
type cloner interface {
	cloneBackend() Backend
}

// Clone returns an independent copy of the backend. Backends that implement
// the in-process cloner keep their full state (including the warm-start
// factorization); every other backend round-trips through Snapshot/Restore,
// which is state-equivalent by the snapshot contract.
func Clone(b Backend) (Backend, error) {
	if c, ok := b.(cloner); ok {
		return c.cloneBackend(), nil
	}
	state, err := b.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("estimator: clone snapshot: %w", err)
	}
	return Restore(b.Method(), state)
}

// trainModer is implemented by backends that distinguish incremental from
// full training runs.
type trainModer interface {
	trainMode() string
}

// TrainMode reports how the backend's last Train call fitted the model:
// "incremental" when it re-solved from kept state, "full" otherwise. Every
// backend without an incremental path refits from its whole state, which is
// a full train by definition.
func TrainMode(b Backend) string {
	if tm, ok := b.(trainModer); ok {
		if mode := tm.trainMode(); mode != "" {
			return mode
		}
	}
	return core.TrainModeFull
}

// estimateDisjoint sums a per-box estimator over disjoint boxes and clamps
// to [0, 1]; the shared union path of every histogram-style backend.
func estimateDisjoint(boxes []geom.Box, one func(geom.Box) (float64, error)) (float64, error) {
	var total float64
	for _, b := range boxes {
		sel, err := one(b)
		if err != nil {
			return 0, err
		}
		total += sel
	}
	if total < 0 {
		total = 0
	}
	if total > 1 {
		total = 1
	}
	return total, nil
}
