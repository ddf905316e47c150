package quicksel

import (
	"quicksel/internal/estimator"
	"quicksel/internal/lifecycle"
	"quicksel/internal/wal"
)

// Option configures an Estimator at construction time.
type Option func(*settings)

// settings is what the options set: the backend's configuration, the
// lifecycle tuning, and the write-ahead log's directory and options (an
// empty walDir means no log).
type settings struct {
	model     estimator.Config
	lifecycle lifecycle.Config
	walDir    string
	wal       wal.Options
}

// Estimation methods accepted by WithMethod. MethodQuickSel is the paper's
// method and the default; the others are the baselines of the paper's
// evaluation (§5.1), served behind the same Estimator API so callers — and
// the quickseld daemon — can compare or mix methods per workload.
const (
	// MethodQuickSel is the uniform mixture model fitted by a penalized
	// quadratic program — the best accuracy per model parameter in the
	// paper's comparison.
	MethodQuickSel = estimator.QuickSel
	// MethodSTHoles is the STHoles error-feedback histogram: the cheapest
	// per-observation updates, at a significant accuracy cost.
	MethodSTHoles = estimator.STHoles
	// MethodIsomer is the ISOMER max-entropy histogram with the published
	// iterative-scaling update: strong accuracy, but its bucket partition
	// grows multiplicatively with observed queries.
	MethodIsomer = estimator.Isomer
	// MethodMaxEnt is the same max-entropy histogram solved with the
	// optimized incremental scaling update: identical fixed point to
	// MethodIsomer at a much lower training cost.
	MethodMaxEnt = estimator.MaxEnt
	// MethodSample is the AutoSample baseline over a synthetic table
	// materialized from the feedback stream.
	MethodSample = estimator.Sample
	// MethodScanHist is the AutoHist equiwidth-grid baseline over the same
	// synthetic table.
	MethodScanHist = estimator.ScanHist
)

// Methods returns the valid estimation method names, sorted.
func Methods() []string { return estimator.Methods() }

// WithMethod selects the estimation method backing the Estimator. The
// default is MethodQuickSel; an unknown name fails New with an error that
// lists the valid methods.
func WithMethod(method string) Option {
	return func(s *settings) { s.model.Method = method }
}

// WithSeed fixes the pseudo-random seed used for subpopulation generation
// (and the scan-backed methods' synthetic rows), making the model fully
// deterministic.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.model.Seed = seed }
}

// WithMaxSubpopulations caps the number of mixture components. The paper's
// default is 4,000 (§3.3, footnote 9). QuickSel method only.
func WithMaxSubpopulations(m int) Option {
	return func(s *settings) { s.model.MaxSubpops = m }
}

// WithSubpopsPerQuery sets how many mixture components are budgeted per
// observed query before the cap applies. The paper's default is 4.
// QuickSel method only.
func WithSubpopsPerQuery(k int) Option {
	return func(s *settings) { s.model.SubpopsPerQuery = k }
}

// WithFixedSubpopulations pins the number of mixture components regardless
// of how many queries have been observed (the mode of Figure 7c).
// QuickSel method only.
func WithFixedSubpopulations(m int) Option {
	return func(s *settings) { s.model.FixedSubpops = m }
}

// WithPointsPerPredicate sets the number of workload-aware points sampled
// inside each observed predicate (paper default: 10). QuickSel method only.
func WithPointsPerPredicate(k int) Option {
	return func(s *settings) { s.model.PointsPerPredicate = k }
}

// WithLambda sets the consistency-penalty weight of Problem 3 (paper
// default: 1e6). QuickSel method only.
func WithLambda(lambda float64) Option {
	return func(s *settings) { s.model.Lambda = lambda }
}

// WithIterativeSolver switches training from the analytic closed form to a
// projected-gradient quadratic-program solver that enforces non-negative
// weights. This is the "Standard QP" baseline of Figure 6; it is slower and
// exists for comparison and for callers that need w >= 0 exactly.
// QuickSel method only.
func WithIterativeSolver() Option {
	return func(s *settings) { s.model.UseIterativeSolver = true }
}

// WithWorkers bounds the goroutines used by the parallel training kernels
// (the nearest-center radii, Q-matrix assembly, the Gram product, the
// blocked Cholesky). 0 — the
// default — uses GOMAXPROCS; 1 forces the sequential path. Every worker
// count produces bit-identical weights, so the knob trades cores for
// training wall clock without affecting estimates or snapshots. It caps
// training only: EstimateBatch splits a batch over GOMAXPROCS goroutines
// whatever it is set to, so GOMAXPROCS caps both. QuickSel method only.
func WithWorkers(n int) Option {
	return func(s *settings) { s.model.Workers = n }
}

// WithWarmStart keeps the analytic solver's Cholesky factorization between
// training runs. While the subpopulation set is frozen — at the
// subpopulation cap, or under WithFixedSubpopulations — a small feedback
// batch retrains by rank-1 updates in O(batch·m²) instead of refactoring in
// O(m³); larger batches, a growing subpopulation budget, or a restored
// snapshot fall back to the full factorization transparently (see
// Estimator.TrainMode). Warm retrains match full retrains to solver
// rounding, not bit-for-bit. No effect with WithIterativeSolver.
// QuickSel method only.
func WithWarmStart() Option {
	return func(s *settings) { s.model.WarmStart = true }
}

// WithMaxObservations caps the retained feedback history at n records using
// the observation coreset: an incoming observation whose predicate box
// overlaps a retained one above the merge threshold (Jaccard similarity)
// merges into it — weighted-average corners and selectivity, summed weight —
// and otherwise the minimum-weight record is evicted to make room. 0 (the
// default) keeps the full history, the paper's behaviour. QuickSel method
// only.
func WithMaxObservations(n int) Option {
	return func(s *settings) { s.model.MaxObservations = n }
}

// WithMergeThreshold sets the Jaccard overlap in (0,1] above which the
// observation coreset merges two feedback records (default 0.9). Lower
// values merge more aggressively, trading accuracy for a smaller history.
// Only meaningful together with WithMaxObservations. QuickSel method only.
func WithMergeThreshold(t float64) Option {
	return func(s *settings) { s.model.MergeThreshold = t }
}

// WithMaxBuckets bounds the bucket tree (MethodSTHoles) or the disjoint
// bucket partition (MethodIsomer, MethodMaxEnt). Fewer buckets mean less
// memory and faster training at lower accuracy.
func WithMaxBuckets(m int) Option {
	return func(s *settings) { s.model.MaxBuckets = m }
}

// WithSampleSize sets the row budget of MethodSample (default 1000).
func WithSampleSize(n int) Option {
	return func(s *settings) { s.model.SampleSize = n }
}

// WithGridBuckets sets the cell budget of MethodScanHist (default 1000).
func WithGridBuckets(n int) Option {
	return func(s *settings) { s.model.GridBuckets = n }
}

// WithRowsPerObservation sets how many synthetic rows the scan-backed
// methods (MethodSample, MethodScanHist) materialize per feedback record
// (default 128). More rows track feedback more faithfully at higher
// memory and refresh cost.
func WithRowsPerObservation(n int) Option {
	return func(s *settings) { s.model.RowsPerObservation = n }
}

// Retrain policies accepted by WithRetrainPolicy. They control how the
// quickseld serving registry treats a freshly trained challenger model; see
// the internal/lifecycle package for the promotion protocol.
const (
	// PolicyAlways swaps every trained model in unconditionally (default).
	PolicyAlways = string(lifecycle.PolicyAlways)
	// PolicyNever archives trained models as versions without serving them;
	// the serving model changes only through explicit rollback.
	PolicyNever = string(lifecycle.PolicyNever)
	// PolicyShadow scores the challenger against the serving champion on a
	// held-out tail of the feedback batch and promotes only a winner.
	PolicyShadow = string(lifecycle.PolicyShadow)
)

// Policies returns the valid retrain policy names.
func Policies() []string { return lifecycle.Policies() }

// WithRetrainPolicy selects the promotion policy applied when the serving
// registry retrains this estimator: PolicyAlways (default), PolicyNever, or
// PolicyShadow. An unknown name fails New with an error listing the valid
// policies. Outside the registry the policy is carried in the estimator's
// lifecycle configuration but does not change Train, which remains
// synchronous and unconditional.
func WithRetrainPolicy(policy string) Option {
	return func(s *settings) { s.lifecycle.Policy = lifecycle.Policy(policy) }
}

// WithDriftThreshold sets the Page–Hinkley alarm threshold λ of the
// estimator's accuracy tracker (default 0.25). The tracker accumulates how
// far the realized absolute estimate error runs above its own running mean;
// crossing λ raises a drift alarm, which the serving registry answers with
// an immediate retrain. Lower values are more sensitive. Pass a negative
// value to disable drift detection.
func WithDriftThreshold(lambda float64) Option {
	return func(s *settings) { s.lifecycle.DriftThreshold = lambda }
}

// WithAccuracyWindow sets the capacity of the rolling realized-accuracy
// window behind Estimator.Accuracy (default 256 samples). Each Observe
// first asks the current model for its estimate and records the (estimate,
// observed-actual) pair; observations that arrive while a lazily-fitted
// model has an unfitted batch pending are not sampled, so tracking never
// forces a refit on the observe path.
func WithAccuracyWindow(n int) Option {
	return func(s *settings) { s.lifecycle.Window = n }
}

// WithVersionHistory bounds how many archived model versions (previous
// champions and rejected challengers) the serving registry keeps for this
// estimator (default 4). Larger histories allow deeper rollback at the
// memory cost of one full model snapshot per version.
func WithVersionHistory(n int) Option {
	return func(s *settings) { s.lifecycle.History = n }
}

// Write-ahead-log fsync policies accepted by WithWALFsync; see the
// internal/wal package for the durability trade-offs.
const (
	// WALFsyncAlways fsyncs every group-commit batch before Observe
	// returns: an acknowledged observation survives machine power loss.
	WALFsyncAlways = string(wal.SyncAlways)
	// WALFsyncInterval (the default) acknowledges once the batch reaches
	// the OS page cache and fsyncs in the background: an acknowledged
	// observation survives a killed process.
	WALFsyncInterval = string(wal.SyncInterval)
	// WALFsyncNever never fsyncs; the OS flushes on its own schedule.
	WALFsyncNever = string(wal.SyncNever)
)

// WithWAL enables a write-ahead observation log in dir: every Observe is
// appended (and group-committed) before it returns, and New with the same
// option replays the log so a restarted process resumes with every
// acknowledged observation intact — no snapshot required. Restore replays
// only the suffix after the snapshot's recorded log position, so
// Checkpoint + Restore bound both the log size and the recovery time.
// The same durability for the serving daemon is configured with quickseld's
// -wal-dir flag instead.
func WithWAL(dir string) Option {
	return func(s *settings) { s.walDir = dir }
}

// WithWALFsync selects the log's fsync policy: WALFsyncAlways,
// WALFsyncInterval (default), or WALFsyncNever. An unknown name fails New
// with an error listing the valid policies.
func WithWALFsync(policy string) Option {
	return func(s *settings) { s.wal.Sync = wal.Policy(policy) }
}

// WithWALSegmentSize sets the log's segment rotation threshold in bytes
// (default 64 MiB). Smaller segments compact at a finer grain after a
// checkpoint; larger ones mean fewer files.
func WithWALSegmentSize(bytes int64) Option {
	return func(s *settings) { s.wal.SegmentSize = bytes }
}
