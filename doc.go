// Package quicksel is a Go implementation of QuickSel, the query-driven
// selectivity-learning framework of Park, Zhong, and Mozafari (SIGMOD 2020).
//
// QuickSel estimates the selectivity of query predicates — the fraction of a
// table's rows a predicate selects — without scanning the data. Instead it
// learns from observed queries: every time the database executes a query,
// the actual selectivity is fed back into the model, which refines itself in
// milliseconds and produces increasingly accurate estimates over time.
//
// Internally the model is a uniform mixture model: a weighted sum of uniform
// distributions over hyperrectangular subpopulations. Training minimizes the
// L2 distance between the model and a uniform distribution subject to
// consistency with the observed selectivities, which reduces to a quadratic
// program with a closed-form solution (one symmetric positive-definite
// solve). ARCHITECTURE.md maps the packages, including the drivers that
// reproduce the paper's evaluation.
//
// # Quick start
//
//	schema, _ := quicksel.NewSchema(
//		quicksel.Column{Name: "age", Kind: quicksel.Integer, Min: 0, Max: 120},
//		quicksel.Column{Name: "salary", Kind: quicksel.Real, Min: 0, Max: 500000},
//	)
//	est, _ := quicksel.New(schema)
//
//	// Feed back actual selectivities as queries execute.
//	pred := quicksel.And(
//		quicksel.Range(0, 30, 40),        // 30 <= age < 40
//		quicksel.AtLeast(1, 100000),      // salary >= 100k
//	)
//	_ = est.Observe(pred, 0.121)          // the query selected 12.1% of rows
//
//	// Ask for estimates for new predicates.
//	sel, _ := est.Estimate(quicksel.Range(0, 20, 65))
//
// The estimator is safe for concurrent use.
//
// # Estimation methods
//
// An Estimator is backed by one of six interchangeable estimation methods,
// selected with WithMethod at construction. The default, MethodQuickSel, is
// the paper's mixture model; the others are the baselines of the paper's
// evaluation (§5.1), promoted to first-class servable backends:
//
//   - MethodQuickSel — uniform mixture model, penalized-QP fit. Best
//     accuracy per parameter; training is one SPD solve.
//   - MethodSTHoles — error-feedback bucket tree. Cheapest updates, bounded
//     memory, lowest accuracy.
//   - MethodIsomer — ISOMER max-entropy histogram, published
//     iterative-scaling update. Strong accuracy; partition grows with the
//     query history.
//   - MethodMaxEnt — the same max-entropy model solved with the optimized
//     incremental scaling update (same fixed point, much faster training).
//   - MethodSample / MethodScanHist — the scan-based baselines (AutoSample,
//     AutoHist) over a synthetic table materialized from the feedback
//     stream.
//
// Selecting a baseline is one option:
//
//	est, _ := quicksel.New(schema, quicksel.WithMethod(quicksel.MethodSTHoles))
//
// Observe, Estimate, Train, Snapshot, and Restore behave uniformly across
// methods; only accuracy, training cost, and memory differ. Snapshots
// record the method, so Restore rebuilds the right backend. `quickselbench
// compare` races all six methods over one workload and prints a
// per-method accuracy/latency table.
//
// # Snapshots
//
// Estimator.Snapshot and Restore serialize the full model — observations,
// subpopulations, and trained weights — as JSON; a restored estimator
// serves identical estimates without retraining. EncodeSnapshot and
// DecodeSnapshot are stream conveniences over the same format. Snapshots
// also carry the model's pseudo-random stream position, so a restored
// estimator does not just estimate identically — it keeps observing and
// retraining bit-identically to the run it was captured from. Envelope
// versions 1 through 5 all restore; re-snapshotting upgrades to the current
// version losslessly.
//
// # Incremental training
//
// WithWarmStart keeps the trained model's Cholesky factorization of the
// QP system across Train calls: when the next retrain changes only a small
// batch of observations over an unchanged subpopulation budget, it is
// folded in as O(m²) rank-1 factor updates instead of a fresh O(m³)
// factorization — at the paper's default m=4000 model, roughly an order of
// magnitude cheaper for a 64-observation batch (`quickselbench warm`
// measures it). The incremental fit matches a cold retrain to solver
// tolerance, falls back to the full path automatically whenever the warm
// factor is absent, stale, or numerically unsafe, and never serializes the
// factor (a restored estimator's first retrain is full). TrainMode reports
// the path the last Train took; CloneForTraining deep-copies an estimator
// with its warm state, which is how the quickseld trainer keeps retrains
// incremental across model swaps.
//
// With unbounded history even an incremental retrain grows linearly, so
// WithMaxObservations bounds the feedback history as a coreset: past the
// cap, a new observation either merges into a retained one whose box
// overlaps it above WithMergeThreshold (Jaccard; weighted-average bounds
// and selectivity, summed weight) or evicts the minimum-weight oldest
// record. The per-observation weights persist in snapshots (envelope v5).
//
// # Durability
//
// WithWAL(dir) attaches a write-ahead observation log (internal/wal): every
// Observe is appended — group-committed with concurrent observers — before
// it returns, under the fsync policy of WithWALFsync (acked observations
// survive a killed process by default, or power loss with WALFsyncAlways).
// New with the same WithWAL directory replays the log in full, so an
// embedding process restarts with every acknowledged observation intact and
// no snapshot at all. For bounded recovery, Estimator.Checkpoint writes a
// snapshot (which records the log position) and compacts the segments it
// makes redundant; Restore with WithWAL replays only the suffix after that
// position. Close releases the log. The quickseld daemon gets the same
// machinery registry-wide via -wal-dir / -wal-fsync / -wal-segment-size,
// where a kill -9 mid-stream loses nothing acknowledged.
//
// # Serving
//
// The repository also ships quickseld (cmd/quickseld, built on
// internal/server): a long-lived HTTP/JSON daemon hosting a registry of
// named estimators, each backed by any of the six methods (the create
// request's "method" field). It ingests observations into bounded buffers,
// retrains dirty estimators in a background worker off the query path,
// exposes Prometheus metrics labeled by method, and persists model
// snapshots so a restarted daemon serves identical estimates. POST
// /v1/{name}/estimate/batch answers many WHERE clauses in one request from
// a single model generation. docs/API.md is the full HTTP reference;
// ARCHITECTURE.md maps the packages and data flow.
//
// # Model lifecycle
//
// Continuous learning needs guardrails: a burst of skewed feedback must not
// silently degrade a serving model. Every Estimator carries a rolling
// realized-accuracy window — Observe first asks the current model for its
// estimate and records the (estimate, observed-actual) pair — exposed by
// Accuracy and tuned with WithAccuracyWindow; a Page–Hinkley detector over
// the realized error raises drift alarms (WithDriftThreshold). Inside
// quickseld the loop closes: drift triggers an immediate retrain, every
// trained model becomes an immutable numbered version (WithVersionHistory
// bounds the archive), and WithRetrainPolicy decides whether a freshly
// trained challenger serves — PolicyAlways swaps unconditionally,
// PolicyNever archives it for manual promotion, and PolicyShadow scores it
// against the serving champion on a held-out tail of the feedback batch,
// promoting only a winner. POST /v1/{name}/rollback restores any archived
// version bit-identically. `quickselbench drift` races the shadow and
// always policies over a mean-shift drifting workload.
//
// # Performance
//
// Training runs its four heavy kernels — the nearest-center radii that size
// the subpopulations, Q-matrix assembly over a flat structure-of-arrays box
// layout, the Gram product, and a blocked panel-parallel Cholesky
// factorization with a register-tiled trailing update — on GOMAXPROCS
// goroutines by default; WithWorkers caps the count per estimator (WithWorkers(1) forces
// the sequential path). Every worker count yields bit-identical weights:
// each matrix element accumulates its floating-point terms in a fixed order
// and workers write disjoint rows, so parallelism never perturbs snapshots.
//
// Serving compiles the trained model at Train time into an immutable form —
// zero-weight subpopulations pruned, weights pre-divided by box volume,
// bounds in contiguous arrays — so Estimate is an allocation-free loop that
// writes nothing. Estimates hold the estimator lock shared: readers of one
// estimator run side by side and wait only for writers (Observe, Train,
// Snapshot) and for a pending lazy fit, which the estimate that finds it
// pays alone. For many predicates at once, EstimateBatch and
// EstimateBatchWhere parse and lower outside the lock, acquire it once per
// batch and split the clauses over GOMAXPROCS goroutines, each answer
// bit-identical to Estimate's. WithWorkers caps training only.
package quicksel
