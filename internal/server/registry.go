// Package server implements quickseld, a concurrent selectivity-serving
// daemon over the public quicksel API. It hosts a registry of named
// estimators (one per table or schema), ingests observed selectivities into
// bounded per-estimator buffers, and retrains dirty estimators in a
// background worker so the estimate path never pays the training cost:
// training happens on a clone built from a model snapshot, and the freshly
// trained clone is swapped in atomically.
//
// Every estimator is backed by one of the pluggable estimation methods
// (internal/estimator): QuickSel's mixture model by default, or one of the
// paper's baselines — sthole, isomer, maxent, sample, scanhist — selected
// by the create request's "method" field. The registry is method-agnostic:
// buffering, background training, snapshots, and metrics work identically,
// with the method surfaced as a label.
//
// The registry persists full model state (not just the feedback log) as a
// JSON snapshot file, so a restarted daemon serves identical estimates —
// the §6 system-catalog idiom of the paper, extended from observed-query
// metadata to the whole trained model. Each persisted estimator is a
// versioned envelope that records its method, so a restart restores the
// right backend bit-identically.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"quicksel"
	"quicksel/internal/lifecycle"
	"quicksel/internal/obs"
	"quicksel/internal/replica"
	"quicksel/internal/wal"
)

// Defaults for Config fields left zero.
const (
	DefaultTrainInterval = 250 * time.Millisecond
	DefaultBufferSize    = 4096
	// DefaultTraceRingSize is the completed-trace ring capacity behind
	// GET /debug/requests.
	DefaultTraceRingSize = 256
	// DefaultTraceSample traces every request; lower it at high QPS to
	// bound tracing overhead (see Config.TraceSample).
	DefaultTraceSample = 1.0
	// DefaultSlowRequest is the slow-request log threshold: completed
	// traces at least this slow are logged at Warn.
	DefaultSlowRequest = 500 * time.Millisecond
)

// Config tunes the serving registry. The zero value of every field selects
// a sensible default; a zero SnapshotPath disables persistence.
type Config struct {
	// SnapshotPath is the JSON file the registry persists estimator state
	// to. Empty disables persistence.
	SnapshotPath string
	// TrainInterval is the debounce interval of the background training
	// worker: dirty estimators are retrained at most this often.
	TrainInterval time.Duration
	// SnapshotInterval, when positive, makes the worker also persist a
	// snapshot this often. Snapshots are always written on Close.
	SnapshotInterval time.Duration
	// BufferSize bounds each estimator's pending-observation buffer.
	// Observations arriving while the buffer is full are dropped and
	// counted (backpressure is reported to the client).
	BufferSize int
	// Seed is the default model seed for estimators created without an
	// explicit seed.
	Seed int64
	// Lifecycle is the daemon-wide default lifecycle configuration (retrain
	// policy, drift threshold, accuracy window, version history) for
	// estimators created without explicit per-estimator options. Zero fields
	// take the lifecycle package defaults; the zero value keeps the
	// pre-lifecycle behaviour (always-promote) with tracking on.
	Lifecycle lifecycle.Config

	// WALDir enables the write-ahead observation log in this directory:
	// every acknowledged observation (plus creates and drops) is appended
	// before it is acknowledged, and NewRegistry replays the log suffix the
	// snapshot does not cover. Empty disables the log (the pre-WAL
	// behaviour: only snapshots survive a crash).
	WALDir string
	// WALSync is the log's fsync policy: "always", "interval" (default), or
	// "never"; see the wal package for the durability trade-offs.
	WALSync string
	// WALSegmentSize is the log's segment rotation threshold in bytes
	// (0 = the wal package default, 64 MiB).
	WALSegmentSize int64

	// Role selects the replication role: RolePrimary (default) serves writes
	// and ships its WAL; RoleFollower applies a primary's WAL (via
	// Registry.Replicate) and serves read-only traffic until promoted.
	// A follower requires WALDir. See internal/server/replication.go.
	Role string
	// PrimaryURL is the primary's base URL, advertised to redirected write
	// clients on a follower's 503 responses. A live hint learned from the
	// replication stream (the primary's own AdvertiseURL) takes precedence;
	// see Registry.PrimaryURL.
	PrimaryURL string
	// NodeID is this node's stable identity, reported on
	// GET /v1/replication/status so routers can correlate a reachable URL
	// with a cluster-map entry. Empty omits the field.
	NodeID string
	// AdvertiseURL is the base URL at which THIS node is reachable by
	// clients and routers. A primary stamps it on replication responses
	// (X-Quickseld-Primary) and on /v1/replication/status, so followers —
	// and through them, routers — learn the true reachable address even
	// when the bind address is 0.0.0.0 or behind a NAT. Empty keeps the
	// pre-advertise behaviour (no self-identification).
	AdvertiseURL string
	// ReplicationAck selects when a primary acknowledges writes: AckPrimary
	// (default) at local durability, AckFollower once a follower's fetch
	// watermark also covers the record (semi-synchronous; degrades to local
	// acks after ReplicationAckTimeout or when no follower has attached).
	ReplicationAck string
	// ReplicationAckTimeout bounds the semi-sync ack wait
	// (0 = DefaultReplicationAckTimeout).
	ReplicationAckTimeout time.Duration
	// FollowerRetention is how long a follower's last fetch keeps counting:
	// within it the follower's watermark holds back log compaction and its
	// acks satisfy semi-sync waits; beyond it the follower is presumed dead
	// and must re-bootstrap from a snapshot if it returns
	// (0 = DefaultFollowerRetention).
	FollowerRetention time.Duration

	// Logger is the base structured logger every daemon component derives
	// its scoped logger from (component=registry, trainer, wal, server,
	// trace). Nil falls back to slog.Default(), which writes through the
	// stdlib log package — the pre-slog destination.
	Logger *slog.Logger
	// TraceRingSize is the capacity of the completed-trace ring behind
	// GET /debug/requests (0 = DefaultTraceRingSize).
	TraceRingSize int
	// SlowRequest is the slow-trace log threshold: completed request and
	// train traces at least this slow are logged with their stage
	// breakdown. 0 selects DefaultSlowRequest; negative disables the log.
	SlowRequest time.Duration
	// TraceSample is the fraction of requests traced (deterministic by
	// request-id hash, so a cluster agrees per request). 0 selects
	// DefaultTraceSample (trace everything); negative disables tracing.
	// Sampled-out requests still carry an X-Request-Id.
	TraceSample float64
	// Pprof mounts the net/http/pprof profiling handlers under
	// /debug/pprof/. Off by default: profiles expose call stacks and heap
	// contents, so the daemon serves them only when asked to.
	Pprof bool
}

func (c Config) withDefaults() Config {
	if c.TrainInterval <= 0 {
		c.TrainInterval = DefaultTrainInterval
	}
	if c.BufferSize <= 0 {
		c.BufferSize = DefaultBufferSize
	}
	if c.TraceRingSize <= 0 {
		c.TraceRingSize = DefaultTraceRingSize
	}
	if c.SlowRequest == 0 {
		c.SlowRequest = DefaultSlowRequest
	}
	if c.TraceSample == 0 {
		c.TraceSample = DefaultTraceSample
	}
	if c.ReplicationAckTimeout <= 0 {
		c.ReplicationAckTimeout = DefaultReplicationAckTimeout
	}
	if c.FollowerRetention <= 0 {
		c.FollowerRetention = DefaultFollowerRetention
	}
	return c
}

// pendingObs is one ingested observation awaiting the background trainer.
// seq is its write-ahead-log sequence number (0 when the log is disabled);
// the buffer is FIFO, so per-estimator seqs are strictly increasing.
type pendingObs struct {
	pred *quicksel.Predicate
	sel  float64
	seq  uint64
}

// nan marks estimates that failed; the tracker skips them.
var nan = math.NaN()

// estimatorState is the per-estimator shard: its own lock, the serving
// estimator (swapped atomically after background training), the bounded
// pending buffer, and serving statistics. Work on different estimators
// never contends.
type estimatorState struct {
	name string
	life lifecycle.Config // resolved lifecycle configuration (immutable)

	mu      sync.Mutex
	serving *quicksel.Estimator // estimator answering Estimate right now
	pending []pendingObs        // observations not yet trained in

	// Lifecycle state, guarded by mu. tracker records the serving model's
	// prequential accuracy (its estimate for each observation at ingest
	// time); store is the bounded immutable version history.
	tracker  *lifecycle.Tracker
	store    *lifecycle.Store
	lastGate *lifecycle.ShadowResult // most recent shadow verdict (nil before one)

	// WAL watermarks, guarded by mu (zero when the log is disabled): walSeq
	// is the highest log sequence number ingested for this estimator,
	// walConsumed the highest a completed training run has taken out of the
	// pending buffer. See internal/server/wal.go for the recovery protocol
	// they drive.
	walSeq      uint64
	walConsumed uint64

	// Stats, guarded by mu.
	observedTotal uint64        // observations accepted since creation
	droppedTotal  uint64        // observations dropped on a full buffer
	trainedTotal  uint64        // background training runs
	trainErrors   uint64        // training runs that failed
	promotions    uint64        // trained models swapped into the serving slot
	rejections    uint64        // trained challengers the gate turned down
	rollbacks     uint64        // explicit rollbacks served
	trainsFull    uint64        // completed runs that refit from scratch
	trainsIncr    uint64        // completed runs that re-solved from warm state
	lastTrainErr  string        // message of the last failed run ("" if the last run succeeded)
	lastTrainMode string        // how the last successful run fitted ("full"/"incremental")
	lastTrainDur  time.Duration // duration of the last training run
	lastTrainAt   time.Time

	estimateTotal atomic.Uint64 // estimates served (atomic: off the mu path)
	trainMu       sync.Mutex    // serializes training runs and rollbacks; never held on the estimate path

	// Latency histograms (lock-free atomics; recorded outside mu, exported
	// on /metrics with estimator+method labels and summarized as
	// percentiles in EstimatorInfo).
	observeHist   obs.Histogram // ObserveParsed, decode to durable ack
	estimateHist  obs.Histogram // single Estimate
	batchHist     obs.Histogram // EstimateBatch, whole batch
	trainHist     obs.Histogram // flushAndTrain full-mode runs (and failed runs)
	trainIncrHist obs.Histogram // flushAndTrain incremental (warm-start) runs

	// qerrorHist records the realized q-error of every prequential sample
	// (the serving model's estimate vs the observed selectivity) via
	// ObserveValue — the full distribution behind the tracker's window
	// mean, exported per estimator and federated cluster-wide so accuracy
	// drift shows up as a moving p95 before Page-Hinkley fires.
	qerrorHist obs.Histogram
}

// sample records one prequential sample, the serving model's estimate est
// for an observation whose actual selectivity is sel, in the accuracy
// tracker and the q-error histogram, and reports whether the tracker raised
// a drift alarm. A NaN estimate (the estimate failed) records nothing. The
// caller holds st.mu.
func (st *estimatorState) sample(est, sel float64) (drifted bool) {
	if est != est {
		return false
	}
	st.qerrorHist.ObserveValue(lifecycle.QError(est, sel))
	return st.tracker.Add(est, sel)
}

// checkObservation rejects a feedback record no model can learn from: a
// selectivity that is not a number in [0, 1], or a predicate that does not
// lower against the schema (a NaN bound, a column out of range). lowered
// says the predicate is already known to lower, because an estimate of it
// succeeded, so the check need not lower it again. The registry checks
// each record once, before anything is queued or logged; replay and
// replication skip a record that fails it, which only a log written before
// the check can hold.
func checkObservation(schema *quicksel.Schema, pred *quicksel.Predicate, sel float64, lowered bool) error {
	if !(sel >= 0 && sel <= 1) {
		return errors.New("selectivity must be in [0, 1]")
	}
	if lowered {
		return nil
	}
	_, err := pred.Boxes(schema)
	return err
}

// Registry is the concurrent estimator registry behind the HTTP API. Create
// one with NewRegistry and stop it with Close, which flushes all pending
// observations and persists a final snapshot.
type Registry struct {
	cfg   Config
	start time.Time // process-local registry start, for telemetry uptime

	mu         sync.RWMutex
	estimators map[string]*estimatorState

	driftWake chan struct{} // drift alarms bypass the debounce entirely
	done      chan struct{}
	wg        sync.WaitGroup
	stopO     sync.Once

	// wal is the write-ahead observation log (nil when disabled).
	wal *wal.Log

	// Component-scoped structured loggers, all derived from Config.Logger.
	log      *slog.Logger // component=registry: snapshots, recovery, rollbacks
	trainLog *slog.Logger // component=trainer: train runs, promotions, gate verdicts
	walLog   *slog.Logger // component=wal: replay progress and skips

	// ring retains the most recent completed request and train traces for
	// GET /debug/requests and the slow-request log.
	ring *obs.Ring

	// Registry-wide latency histograms (the per-estimator ones live on
	// estimatorState).
	walAppendHist obs.Histogram // group-commit segment writes
	walFsyncHist  obs.Histogram // segment fsyncs
	snapshotHist  obs.Histogram // snapshot serialize-and-rename

	// Readiness state behind GET /readyz; see Readiness.
	snapReady atomic.Bool
	walReady  atomic.Bool
	trainerUp atomic.Bool
	draining  atomic.Bool // Close started: fail the probe before requests stop

	// primary is the current replication role (see
	// internal/server/replication.go); the worker trains only while it is
	// set.
	primary atomic.Bool

	// Primary-side follower bookkeeping: per-follower fetch watermarks (for
	// the compaction floor) and semi-sync ack waiters.
	replMu     sync.Mutex
	followers  map[string]*followerWatermark
	ackWaiters []*ackWaiter

	// Semi-sync ack counters (primary), and records applied via Replicate
	// (follower).
	replApplied atomic.Uint64
	ackWaits    atomic.Uint64
	ackTimeouts atomic.Uint64
	// fetcher is a follower's fetch loop, set by follow before the server
	// is published and read by /readyz, /metrics and the status endpoint
	// (nil when Replicate is fed some other way).
	fetcher *replica.Fetcher

	// Registry-wide counters (atomics; hot paths don't take mu).
	snapshotsSaved   atomic.Uint64
	snapshotErrs     atomic.Uint64
	walAppendErrs    atomic.Uint64
	walReplayed      atomic.Uint64
	walReplaySkipped atomic.Uint64
	walLastCovered   atomic.Uint64 // covered seq of the last persisted snapshot
}

// NewRegistry builds a registry, reloads state from cfg.SnapshotPath if the
// file exists, replays the write-ahead log suffix the snapshot does not
// cover (when Config.WALDir is set), and starts the background training
// worker. A corrupt snapshot file is set aside and logged, not fatal: the
// registry recovers whatever the log still holds and keeps serving.
func NewRegistry(cfg Config) (*Registry, error) {
	if _, err := lifecycle.ParsePolicy(string(cfg.Lifecycle.Policy)); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if _, err := wal.ParsePolicy(cfg.WALSync); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	role, err := ParseRole(cfg.Role)
	if err != nil {
		return nil, err
	}
	cfg.Role = role
	ack, err := ParseAckMode(cfg.ReplicationAck)
	if err != nil {
		return nil, err
	}
	cfg.ReplicationAck = ack
	if role == RoleFollower && cfg.WALDir == "" {
		return nil, fmt.Errorf("server: a follower requires the write-ahead log (set Config.WALDir)")
	}
	if ack == AckFollower && cfg.WALDir == "" {
		return nil, fmt.Errorf("server: ReplicationAck %q requires the write-ahead log (set Config.WALDir)", AckFollower)
	}
	reg := &Registry{
		cfg:        cfg.withDefaults(),
		estimators: map[string]*estimatorState{},
		driftWake:  make(chan struct{}, 1),
		done:       make(chan struct{}),
		start:      time.Now(),
	}
	reg.log = obs.Component(reg.cfg.Logger, "registry")
	reg.trainLog = obs.Component(reg.cfg.Logger, "trainer")
	reg.walLog = obs.Component(reg.cfg.Logger, "wal")
	slow := reg.cfg.SlowRequest
	if slow < 0 {
		slow = 0 // negative SlowRequest disables the slow-trace log
	}
	reg.ring = obs.NewRing(reg.cfg.TraceRingSize, slow, obs.Component(reg.cfg.Logger, "trace"))
	if reg.cfg.SnapshotPath != "" {
		if err := reg.loadSnapshotFile(reg.cfg.SnapshotPath); err != nil {
			return nil, err
		}
	}
	reg.snapReady.Store(true)
	if reg.cfg.WALDir != "" {
		wlog, err := wal.Open(reg.cfg.WALDir, wal.Options{
			SegmentSize: reg.cfg.WALSegmentSize,
			Sync:        wal.Policy(reg.cfg.WALSync),
			AppendHist:  &reg.walAppendHist,
			FsyncHist:   &reg.walFsyncHist,
			// An empty log directory under a snapshot covering seq C starts
			// numbering at C+1, so sequence numbers stay aligned with the
			// snapshot's covered watermark. This is what lets a follower
			// bootstrap from a primary snapshot and append fetched records
			// under their original sequence numbers.
			InitialSeq: reg.walLastCovered.Load() + 1,
		})
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		reg.wal = wlog
		if err := reg.replayWAL(); err != nil {
			wlog.Close()
			return nil, err
		}
	}
	reg.walReady.Store(true)
	reg.primary.Store(role == RolePrimary)
	reg.wg.Add(1)
	go reg.trainLoop()
	return reg, nil
}

// Readiness is the boot state behind GET /readyz: the registry is ready
// once the snapshot is restored, the write-ahead log is replayed, and the
// background trainer is running. On a follower the trainer is replaced by
// the replication requirement: the fetch loop must be healthy and caught
// up with the primary before the follower advertises itself.
type Readiness struct {
	Ready            bool   `json:"ready"`
	Role             string `json:"role"`
	SnapshotRestored bool   `json:"snapshot_restored"`
	WALReplayed      bool   `json:"wal_replayed"`
	TrainerRunning   bool   `json:"trainer_running"`
	// Follower-only: whether the fetch loop has reached the primary's tail
	// at least once and is currently healthy, and the lag at last check.
	ReplicationCaughtUp *bool  `json:"replication_caught_up,omitempty"`
	ReplicationLag      uint64 `json:"replication_lag,omitempty"`
}

// Readiness reports the registry's boot progress. All components report
// true for the life of a healthy registry; TrainerRunning (primary) and
// replication health (follower) drop back to false when Close starts, so a
// draining daemon fails its readiness probe before it stops answering.
func (r *Registry) Readiness() Readiness {
	rd := Readiness{
		Role:             r.Role(),
		SnapshotRestored: r.snapReady.Load(),
		WALReplayed:      r.walReady.Load(),
		TrainerRunning:   r.trainerUp.Load() && r.IsPrimary(),
	}
	rd.Ready = rd.SnapshotRestored && rd.WALReplayed && !r.draining.Load()
	if r.IsPrimary() {
		rd.Ready = rd.Ready && rd.TrainerRunning
	} else {
		caught := false
		if r.fetcher != nil {
			st := r.fetcher.Stats()
			caught = st.CaughtUp && st.Healthy
			rd.ReplicationLag = st.Lag
		}
		rd.ReplicationCaughtUp = &caught
		rd.Ready = rd.Ready && caught
	}
	return rd
}

// Close stops the fetch loop and the background worker, flushes and
// trains every estimator with pending observations, writes a final
// snapshot (when persistence is configured), and closes the log.
func (r *Registry) Close() error {
	r.draining.Store(true)
	r.stop()
	if r.IsPrimary() {
		// A follower skips the final flush: training on shutdown would give
		// it model state the primary never had. Its pending buffer is in the
		// log, so the restart replays it losslessly.
		for _, st := range r.states() {
			r.flushAndTrain(st)
		}
	}
	var err error
	if r.cfg.SnapshotPath != "" {
		err = r.SaveSnapshot()
	}
	if cerr := r.closeAbrupt(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// closeAbrupt stops the fetch loop and the background worker and closes
// the log, without flushing pending observations, training or writing a
// snapshot: what was only in memory is gone, as with kill -9, while every
// acknowledged record is already in the log. A follower closes this way
// before it wipes its state after a compaction gap, where a final snapshot
// would be deleted unread; Close ends with it. Stopping twice is harmless.
func (r *Registry) closeAbrupt() error {
	r.stop()
	if r.wal != nil {
		return r.wal.Close()
	}
	return nil
}

// stop stops the fetch loop and the background worker and waits for both.
func (r *Registry) stop() {
	if r.fetcher != nil {
		r.fetcher.Stop()
	}
	r.stopO.Do(func() { close(r.done) })
	r.wg.Wait()
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,127}$`)

// Create registers a new named estimator over the schema. The name must be
// URL-safe ([A-Za-z0-9_.-], starting alphanumeric); duplicates are errors.
// Options select the estimation method (quicksel.WithMethod) and tune it;
// an unknown method name fails with an error listing the valid ones.
//
// With the WAL enabled, the create is logged (carrying the initial model
// state, so recovery rebuilds estimators created after the last snapshot)
// and only acknowledged once the record is durable.
func (r *Registry) Create(name string, schema *quicksel.Schema, opts ...quicksel.Option) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("server: invalid estimator name %q", name)
	}
	opts = append([]quicksel.Option{quicksel.WithSeed(r.cfg.Seed)}, opts...)
	est, err := quicksel.New(schema, opts...)
	if err != nil {
		return err
	}
	st, payload, err := r.newState(name, est, lifecycle.OriginInitial)
	if err != nil {
		return err
	}
	var wait func() error
	var seq uint64
	r.mu.Lock()
	if _, ok := r.estimators[name]; ok {
		r.mu.Unlock()
		return &ConflictError{Name: name}
	}
	if r.wal != nil {
		// Enqueue under r.mu: the seq is assigned in the same critical
		// section that publishes the estimator, so a concurrent snapshot
		// capture can never observe a log tail that includes this create
		// without the estimator being in the map.
		rec, merr := json.Marshal(walCreate{Name: name, Snapshot: payload})
		if merr != nil {
			r.mu.Unlock()
			return fmt.Errorf("server: encode create record: %w", merr)
		}
		_, seq, wait = r.wal.Enqueue([]wal.Record{{Type: walRecCreate, Payload: rec}})
		st.walSeq, st.walConsumed = seq, seq
	}
	r.estimators[name] = st
	r.mu.Unlock()
	if wait != nil {
		if werr := wait(); werr != nil {
			// Durability failed: unpublish so a retry is clean.
			r.mu.Lock()
			delete(r.estimators, name)
			r.mu.Unlock()
			r.walAppendErrs.Add(1)
			return fmt.Errorf("server: wal append: %w", werr)
		}
		r.waitReplicated(seq)
	}
	return nil
}

// newState builds the per-estimator shard: the lifecycle configuration
// layers the estimator's own options over the daemon defaults, and the
// initial model becomes version 1 of the estimator's version store. The
// returned payload is the initial model snapshot backing that version.
func (r *Registry) newState(name string, est *quicksel.Estimator, origin string) (*estimatorState, json.RawMessage, error) {
	life := r.cfg.Lifecycle.Merge(est.LifecycleConfig()).WithDefaults()
	payload, err := json.Marshal(est.Snapshot())
	if err != nil {
		return nil, nil, fmt.Errorf("server: snapshot estimator %q: %w", name, err)
	}
	st := &estimatorState{
		name:    name,
		life:    life,
		serving: est,
		tracker: lifecycle.NewTracker(life),
		store:   lifecycle.NewStore(life.History),
	}
	st.store.Init(origin, payload)
	return st, payload, nil
}

// Drop removes a named estimator and its state. With the WAL enabled the
// drop is acknowledged only once its record is durable; if the durability
// wait fails, the estimator is re-published so live state matches what a
// recovery would rebuild and a retry behaves cleanly.
func (r *Registry) Drop(name string) error {
	var wait func() error
	var seq uint64
	r.mu.Lock()
	st, ok := r.estimators[name]
	if !ok {
		r.mu.Unlock()
		return &NotFoundError{Name: name}
	}
	if r.wal != nil {
		if rec, err := json.Marshal(walNamed{Name: name}); err == nil {
			_, seq, wait = r.wal.Enqueue([]wal.Record{{Type: walRecDrop, Payload: rec}})
		}
	}
	delete(r.estimators, name)
	r.mu.Unlock()
	if wait != nil {
		if werr := wait(); werr != nil {
			r.mu.Lock()
			if _, exists := r.estimators[name]; !exists {
				r.estimators[name] = st
			}
			r.mu.Unlock()
			r.walAppendErrs.Add(1)
			return fmt.Errorf("server: wal append: %w", werr)
		}
		r.waitReplicated(seq)
	}
	return nil
}

// ConflictError reports a Create with an already-registered name.
type ConflictError struct{ Name string }

func (e *ConflictError) Error() string {
	return fmt.Sprintf("server: estimator %q already exists", e.Name)
}

// NotFoundError reports an operation on an unregistered name.
type NotFoundError struct{ Name string }

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("server: unknown estimator %q", e.Name)
}

func (r *Registry) state(name string) (*estimatorState, error) {
	r.mu.RLock()
	st, ok := r.estimators[name]
	r.mu.RUnlock()
	if !ok {
		return nil, &NotFoundError{Name: name}
	}
	return st, nil
}

func (r *Registry) states() []*estimatorState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*estimatorState, 0, len(r.estimators))
	for _, st := range r.estimators {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Observation is one (WHERE clause, actual selectivity) feedback record.
type Observation struct {
	Where string
	Sel   float64
}

// Observe queues a single observation for background training; see
// ObserveBatch.
func (r *Registry) Observe(name, where string, sel float64) (backlog int, accepted bool, err error) {
	backlog, accepted64, err := r.ObserveBatch(name, []Observation{{Where: where, Sel: sel}})
	return backlog, accepted64 == 1, err
}

// ObserveBatch parses every WHERE clause against the estimator's schema and
// queues the batch for background training. The batch is atomic with
// respect to validation: if any clause fails to parse or any record fails
// ObserveParsed's check, nothing is queued and the error names the failing
// index. It returns the backlog after the append and how many observations
// were accepted; observations beyond the buffer bound are dropped and
// counted.
func (r *Registry) ObserveBatch(name string, batch []Observation) (backlog, accepted int, err error) {
	st, err := r.state(name)
	if err != nil {
		return 0, 0, err
	}
	st.mu.Lock()
	schema := st.serving.Schema()
	st.mu.Unlock()
	// Parse the whole batch outside the lock: parsing is pure, and
	// validating everything up front keeps the batch all-or-nothing — a
	// client retrying after a mid-batch 400 must not double-ingest the
	// records before the bad one.
	parsed := make([]ParsedObservation, len(batch))
	for i, o := range batch {
		pred, err := quicksel.Parse(schema, o.Where)
		if err != nil {
			return 0, 0, fmt.Errorf("observation %d: %w", i, err)
		}
		parsed[i] = ParsedObservation{Pred: pred, Sel: o.Sel}
	}
	_, backlog, accepted, err = r.ObserveParsed(name, parsed)
	return backlog, accepted, err
}

// ParsedObservation is one pre-parsed feedback record for ObserveParsed.
type ParsedObservation struct {
	Pred *quicksel.Predicate
	Sel  float64
}

// ObserveParsed ingests pre-parsed observations. It first checks every
// record (a selectivity in [0, 1], a predicate that lowers against the
// schema); one bad record fails the whole batch with an error naming its
// index, before anything is queued or logged. It then records each record's
// prequential sample — the serving model's estimate for the predicate
// before the feedback is absorbed — into the accuracy tracker, steps the
// drift detector, and queues the batch for background training. A drift
// alarm kicks the trainer immediately instead of waiting out the debounce.
//
// With the WAL enabled, every accepted record is staged on the log inside
// the same critical section that appends it to the pending buffer (so log
// order equals buffer order), and ObserveParsed returns only once the
// group-commit writer reports the batch durable: an acknowledged
// observation survives a crash. Records a full buffer drops are never
// logged — the drop is reported to the client. If the durability wait
// fails, the accepted records stay buffered but an error is returned, so a
// retrying client gets at-least-once rather than silent loss.
//
// The returned estimates slice holds the serving model's answer for every
// record (NaN where estimation failed), in input order — the realized
// accuracy a benchmark or caller can score without a second round trip.
func (r *Registry) ObserveParsed(name string, recs []ParsedObservation) (estimates []float64, backlog, accepted int, err error) {
	st, err := r.state(name)
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	defer func() { st.observeHist.Observe(time.Since(start)) }()
	st.mu.Lock()
	serving := st.serving
	st.mu.Unlock()
	// Estimate against the serving model outside st.mu — the serving model
	// is never mutated in place and the Estimator's own lock, shared by
	// reads, orders its one lazy fit, so these reads race nothing and wait
	// for no other reader — and check each record before anything is
	// queued.
	schema := serving.Schema()
	estimates = make([]float64, len(recs))
	for i, rec := range recs {
		est, eerr := serving.Estimate(rec.Pred)
		if eerr != nil {
			est = nan
		}
		if err := checkObservation(schema, rec.Pred, rec.Sel, eerr == nil); err != nil {
			return nil, 0, 0, fmt.Errorf("observation %d: %w", i, err)
		}
		estimates[i] = est
	}
	// Frame the log payloads outside the lock too: encoding under the lock
	// would serialize the group commit this path exists to feed. The
	// payloads share one pooled backing arena (sub-sliced per record) so a
	// steady-state batch allocates nothing; the arena is safe to recycle as
	// soon as Enqueue has copied the frames into the log's staging buffer.
	var scratch *observeScratch
	if r.wal != nil {
		scratch = observeScratchPool.Get().(*observeScratch)
		scratch.encode(name, recs)
	}
	st.mu.Lock()
	drifted := false
	for i, rec := range recs {
		if st.sample(estimates[i], rec.Sel) {
			drifted = true
		}
	}
	room := r.cfg.BufferSize - len(st.pending)
	if room < 0 {
		room = 0
	}
	if room > len(recs) {
		room = len(recs)
	}
	var wait func() error
	var lastSeq uint64
	if r.wal != nil && room > 0 {
		first, last, w := r.wal.Enqueue(scratch.wrecs[:room])
		wait, lastSeq = w, last
		for i, rec := range recs[:room] {
			st.pending = append(st.pending, pendingObs{pred: rec.Pred, sel: rec.Sel, seq: first + uint64(i)})
		}
		st.walSeq = last
	} else {
		for _, rec := range recs[:room] {
			st.pending = append(st.pending, pendingObs{pred: rec.Pred, sel: rec.Sel})
		}
	}
	st.observedTotal += uint64(room)
	st.droppedTotal += uint64(len(recs) - room)
	backlog = len(st.pending)
	st.mu.Unlock()
	if scratch != nil {
		// Enqueue copied the frames; the arena is free for the next batch.
		observeScratchPool.Put(scratch)
	}
	if wait != nil {
		if werr := wait(); werr != nil {
			r.walAppendErrs.Add(1)
			return estimates, backlog, room, fmt.Errorf("server: wal append: %w", werr)
		}
		// Semi-sync: under AckFollower the ack additionally waits until a
		// follower's fetch watermark covers the batch, so a primary killed
		// right after acking cannot be the only durable copy.
		r.waitReplicated(lastSeq)
	}
	if drifted {
		// A drift alarm means the serving model is measurably stale: wake
		// the trainer for an immediate pass instead of waiting out the
		// debounce interval.
		r.log.Debug("drift alarm; waking trainer", slog.String("estimator", name))
		select {
		case r.driftWake <- struct{}{}:
		default:
		}
	}
	return estimates, backlog, room, nil
}

// Estimate serves a selectivity estimate from the estimator's current
// serving model. It never waits for training: the serving model is only
// replaced by an atomic swap after a background run completes.
func (r *Registry) Estimate(name, where string) (float64, error) {
	st, err := r.state(name)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	defer func() { st.estimateHist.Observe(time.Since(start)) }()
	st.mu.Lock()
	est := st.serving
	st.mu.Unlock()
	sel, err := est.EstimateWhere(where)
	if err != nil {
		return 0, err
	}
	st.estimateTotal.Add(1)
	return sel, nil
}

// EstimateBatch serves one estimate per WHERE clause, in input order, from
// the estimator's current serving model. The whole batch runs against a
// single model reference, so a concurrent background swap cannot split a
// batch across two model generations; parsing and lock acquisition are
// amortized across the batch. An unparsable clause fails the whole batch.
func (r *Registry) EstimateBatch(name string, wheres []string) ([]float64, error) {
	st, err := r.state(name)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() { st.batchHist.Observe(time.Since(start)) }()
	st.mu.Lock()
	est := st.serving
	st.mu.Unlock()
	sels, err := est.EstimateBatchWhere(wheres)
	if err != nil {
		return nil, err
	}
	st.estimateTotal.Add(uint64(len(sels)))
	return sels, nil
}

// Train synchronously flushes the named estimator's pending observations
// and retrains it (all estimators when name is ""). It exists so callers —
// tests, admin tooling — can force a deterministic point-in-time model.
func (r *Registry) Train(name string) error {
	if name == "" {
		for _, st := range r.states() {
			if err := r.flushAndTrain(st); err != nil {
				return err
			}
		}
		return nil
	}
	st, err := r.state(name)
	if err != nil {
		return err
	}
	return r.flushAndTrain(st)
}

// trainLoop is the registry's one background worker. While the registry
// is primary, every TrainInterval it retrains all estimators with pending
// observations (the interval is the debounce — a burst of observations
// causes one retrain, not one per observation), and a drift alarm skips
// the debounce: the wake on driftWake trains immediately. A follower must
// serve exactly the primary's state, and training boundaries shape the
// model, so it never trains here: replicated observations wait in the
// pending buffers until a promotion makes the next tick train them. In
// both roles the loop persists snapshots on SnapshotInterval.
func (r *Registry) trainLoop() {
	defer r.wg.Done()
	r.trainerUp.Store(true)
	defer r.trainerUp.Store(false)
	ticker := time.NewTicker(r.cfg.TrainInterval)
	defer ticker.Stop()
	var snapC <-chan time.Time
	if r.cfg.SnapshotInterval > 0 && r.cfg.SnapshotPath != "" {
		snap := time.NewTicker(r.cfg.SnapshotInterval)
		defer snap.Stop()
		snapC = snap.C
	}
	for {
		select {
		case <-r.done:
			return
		case <-r.driftWake:
			if !r.IsPrimary() {
				continue
			}
			if r.trainAll() {
				return
			}
		case <-ticker.C:
			if !r.IsPrimary() || !r.anyPending() {
				continue
			}
			if r.trainAll() {
				return
			}
		case <-snapC:
			if err := r.SaveSnapshot(); err != nil {
				r.snapshotErrs.Add(1)
				r.log.Error("periodic snapshot failed", slog.Any("error", err))
			}
		}
	}
}

// trainAll flushes and retrains every estimator with pending observations;
// it reports whether the registry is shutting down. Errors are recorded in
// the estimator's stats (train_errors / last_train_error) by flushAndTrain;
// a failed batch is requeued and retried next tick.
func (r *Registry) trainAll() (stopping bool) {
	for _, st := range r.states() {
		select {
		case <-r.done:
			return true
		default:
		}
		_ = r.flushAndTrain(st)
	}
	return false
}

func (r *Registry) anyPending() bool {
	for _, st := range r.states() {
		st.mu.Lock()
		n := len(st.pending)
		st.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// flushAndTrain drains the estimator's pending buffer into a clone of the
// serving model, trains the clone, and routes the result through the
// promotion gate. The estimator's lock is held only to take the buffer and
// to swap — never across the method's training step (QP solve, iterative
// scaling, rescan) — so Estimate latency is unaffected by training.
//
// Under PolicyShadow the tail of the batch is held out: the challenger
// trains on the head only, both champion and challenger are scored on the
// tail (which neither has trained on), and only a winning challenger —
// after absorbing the tail too — is swapped in. A losing challenger is
// archived as a rejected version; the champion keeps serving. PolicyNever
// archives every trained model without swapping; PolicyAlways swaps
// unconditionally. Every trained model becomes an immutable numbered
// version either way.
//
// trainMu serializes trainers (the explicit Train endpoint can race the
// background worker) and rollbacks, so two runs cannot interleave swaps and
// lose observations.
func (r *Registry) flushAndTrain(st *estimatorState) error {
	st.trainMu.Lock()
	defer st.trainMu.Unlock()

	st.mu.Lock()
	if len(st.pending) == 0 {
		st.mu.Unlock()
		return nil
	}
	start := time.Now()
	sp := obs.StartSpan("train", st.name)
	batch := st.pending
	st.pending = nil
	base := st.serving
	st.mu.Unlock()
	sp.Stage("flush")

	holdN := 0
	// Shadow-score only when the champion has learned something: an
	// untrained initial model is a uniform prior, and a sparse challenger's
	// near-zero estimates off its support would lose to it forever,
	// locking the estimator out of ever learning (cold-start lockout).
	// The gate exists to protect a learned champion, not an empty one.
	if st.life.Policy == lifecycle.PolicyShadow && base.NumObserved() > 0 {
		holdN = lifecycle.HoldoutSize(len(batch))
	}
	head, tail := batch[:len(batch)-holdN], batch[len(batch)-holdN:]

	// Clone in process: the serving model keeps answering estimates while
	// the clone absorbs the batch and pays the QP cost. Unlike the earlier
	// snapshot round trip, CloneForTraining keeps QuickSel's warm-start
	// factorization, so a small batch on a frozen subpopulation budget
	// retrains incrementally instead of refactoring. Untracked: realized
	// accuracy lives in the registry's own tracker (which survives model
	// swaps), so a clone-side tracker would only pay an extra Estimate per
	// absorbed record and persist meaningless training-time samples.
	clone, err := base.CloneForTraining()
	if err == nil {
		for _, o := range head {
			if err = clone.Observe(o.pred, o.sel); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = clone.Train()
	}
	sp.Stage("solve")

	// Shadow-score the challenger against the champion on the held-out
	// tail; neither model has trained on these records.
	var gate *lifecycle.ShadowResult
	promote := st.life.Policy != lifecycle.PolicyNever
	if err == nil && holdN > 0 {
		actuals := make([]float64, holdN)
		champ := make([]float64, holdN)
		chall := make([]float64, holdN)
		for i, o := range tail {
			actuals[i] = o.sel
			if champ[i], err = base.Estimate(o.pred); err != nil {
				break
			}
			if chall[i], err = clone.Estimate(o.pred); err != nil {
				break
			}
		}
		if err == nil {
			res := lifecycle.Shadow(actuals, champ, chall)
			gate = &res
			promote = res.Promote
		}
	}
	sp.Stage("gate")
	// A winning challenger absorbs the held-out tail before serving: the
	// promoted model has trained on the whole batch, the scored model only
	// on the head.
	if err == nil && promote {
		for _, o := range tail {
			if err = clone.Observe(o.pred, o.sel); err != nil {
				break
			}
		}
		if err == nil && holdN > 0 {
			err = clone.Train()
		}
	}
	if err != nil {
		return r.trainFailed(st, sp, batch, start, err)
	}
	payload, err := json.Marshal(clone.Snapshot())
	if err != nil {
		return r.trainFailed(st, sp, batch, start, err)
	}
	// The mode of the run's last Train call: "incremental" when the clone
	// re-solved from its inherited warm factorization, "full" otherwise.
	mode := clone.TrainMode()
	dur := time.Since(start)

	origin := lifecycle.OriginTrained
	if !promote {
		origin = lifecycle.OriginRejected
	}
	st.mu.Lock()
	v := st.store.Add(origin, payload, st.observedTotal, st.tracker.Report().Metrics, gate, promote)
	if promote {
		st.serving = clone
		st.promotions++
		// The serving model changed: judge it on fresh drift statistics.
		st.tracker.ResetDrift()
	} else {
		st.rejections++
	}
	// The batch is consumed — absorbed into the new version (or deliberately
	// discarded with a rejected challenger) — so its log records are covered
	// by the next snapshot and need not replay. The consume watermark moves
	// in the same critical section as the swap, so a snapshot can never
	// capture a model without the watermark that matches it.
	if n := len(batch); n > 0 && batch[n-1].seq > st.walConsumed {
		st.walConsumed = batch[n-1].seq
	}
	st.lastGate = gate
	st.trainedTotal++
	if mode == quicksel.TrainModeIncremental {
		st.trainsIncr++
	} else {
		st.trainsFull++
	}
	st.lastTrainErr = ""
	st.lastTrainMode = mode
	st.lastTrainDur = dur
	st.lastTrainAt = time.Now()
	st.mu.Unlock()
	sp.Stage("swap")
	if mode == quicksel.TrainModeIncremental {
		st.trainIncrHist.Observe(dur)
	} else {
		st.trainHist.Observe(dur)
	}
	verdict := "promoted"
	if !promote {
		verdict = "rejected"
	}
	sp.SetDetail(fmt.Sprintf("%s version %d (batch %d)", verdict, v.ID, len(batch)))
	r.ring.Record(sp.End())
	ev := r.trainLog.With(
		slog.String("estimator", st.name),
		slog.Int("version", v.ID),
		slog.Int("batch", len(batch)),
		slog.Duration("duration", dur),
	)
	if gate != nil {
		ev = ev.With(slog.Any("gate", *gate))
	}
	if promote {
		ev.Debug("model promoted")
	} else {
		ev.Debug("challenger rejected")
	}
	return nil
}

// trainFailed is flushAndTrain's error tail: requeue the batch, record the
// failure in the estimator's stats, and close out the telemetry (span,
// histogram, log) so failed runs are as visible as successful ones.
func (r *Registry) trainFailed(st *estimatorState, sp *obs.Span, batch []pendingObs, start time.Time, err error) error {
	r.requeue(st, batch)
	st.mu.Lock()
	st.trainErrors++
	st.lastTrainErr = err.Error()
	st.mu.Unlock()
	st.trainHist.Observe(time.Since(start))
	sp.SetDetail("error: " + err.Error())
	r.ring.Record(sp.End())
	r.trainLog.Warn("training failed; batch requeued",
		slog.String("estimator", st.name),
		slog.Int("batch", len(batch)),
		slog.Any("error", err),
	)
	return err
}

// Rollback swaps the named estimator's serving slot to an archived version:
// the previous champion when versionID is 0, or any version still in the
// bounded history. The outgoing model is archived in its place, so a
// rollback is itself reversible. Under PolicyNever this is the manual
// promotion path: trained-but-unserved versions sit in the history until an
// operator rolls "back" onto one. The restored version serves bit-identical
// estimates to when it was archived.
func (r *Registry) Rollback(name string, versionID int) (lifecycle.Version, error) {
	st, err := r.state(name)
	if err != nil {
		return lifecycle.Version{}, err
	}
	// trainMu keeps a concurrent train run from swapping between our
	// restore and our publish; SaveSnapshot only reads under st.mu, and the
	// store move + serving swap below happen in one st.mu critical section,
	// so a snapshot can never capture a store/serving pair that disagree.
	st.trainMu.Lock()
	defer st.trainMu.Unlock()

	st.mu.Lock()
	cur := st.store.Current()
	st.mu.Unlock()
	if versionID != 0 && versionID == cur.ID {
		return cur, nil // already serving
	}

	// Rebuild the model from the archived payload before touching the
	// store: a version whose model fails to restore must leave the
	// bookkeeping untouched. trainMu guarantees the store cannot change
	// between Peek and Rollback.
	st.mu.Lock()
	v, err := st.store.Peek(versionID)
	st.mu.Unlock()
	if err != nil {
		return lifecycle.Version{}, &RollbackError{Name: name, Err: err}
	}
	var snap quicksel.Snapshot
	if err := json.Unmarshal(v.Payload, &snap); err != nil {
		return lifecycle.Version{}, &RollbackError{Name: name, Err: fmt.Errorf("restore version %d: %w", v.ID, err)}
	}
	est, err := quicksel.RestoreUntracked(&snap)
	if err != nil {
		return lifecycle.Version{}, &RollbackError{Name: name, Err: fmt.Errorf("restore version %d: %w", v.ID, err)}
	}

	st.mu.Lock()
	if _, err := st.store.Rollback(v.ID); err != nil {
		st.mu.Unlock()
		return lifecycle.Version{}, &RollbackError{Name: name, Err: err}
	}
	st.serving = est
	st.rollbacks++
	st.tracker.ResetDrift()
	st.mu.Unlock()
	r.log.Info("rollback served", slog.String("estimator", name), slog.Int("version", v.ID))
	return v.Meta(), nil
}

// RollbackError reports a rollback that could not be served (unknown or
// evicted version, undecodable payload). The HTTP layer maps it to 400.
type RollbackError struct {
	Name string
	Err  error
}

func (e *RollbackError) Error() string {
	return fmt.Sprintf("server: rollback %q: %v", e.Name, e.Err)
}

func (e *RollbackError) Unwrap() error { return e.Err }

// VersionsInfo is the version history of one estimator: the serving version
// plus the bounded archive, newest first, metadata only.
type VersionsInfo struct {
	Name    string              `json:"estimator"`
	Method  string              `json:"method"`
	Current lifecycle.Version   `json:"current"`
	History []lifecycle.Version `json:"history"`
}

// Versions lists the named estimator's version history.
func (r *Registry) Versions(name string) (VersionsInfo, error) {
	st, err := r.state(name)
	if err != nil {
		return VersionsInfo{}, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return VersionsInfo{
		Name:    st.name,
		Method:  st.serving.Method(),
		Current: st.store.Current(),
		History: st.store.History(),
	}, nil
}

// AccuracyInfo is the realized-accuracy and lifecycle status of one
// estimator: the rolling-window report, the promotion policy, the serving
// version, and the most recent shadow verdict.
type AccuracyInfo struct {
	Name     string                  `json:"estimator"`
	Method   string                  `json:"method"`
	Policy   string                  `json:"policy"`
	Accuracy lifecycle.Report        `json:"accuracy"`
	Version  lifecycle.Version       `json:"version"`
	LastGate *lifecycle.ShadowResult `json:"last_gate,omitempty"`
}

// Accuracy reports the named estimator's realized accuracy and lifecycle
// status.
func (r *Registry) Accuracy(name string) (AccuracyInfo, error) {
	st, err := r.state(name)
	if err != nil {
		return AccuracyInfo{}, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return AccuracyInfo{
		Name:     st.name,
		Method:   st.serving.Method(),
		Policy:   string(st.life.Policy),
		Accuracy: st.tracker.Report(),
		Version:  st.store.Current(),
		LastGate: st.lastGate,
	}, nil
}

// requeue returns a failed batch to the front of the pending buffer so a
// transient training error does not lose observations.
func (r *Registry) requeue(st *estimatorState, batch []pendingObs) {
	st.mu.Lock()
	st.pending = append(batch, st.pending...)
	if len(st.pending) > r.cfg.BufferSize {
		st.droppedTotal += uint64(len(st.pending) - r.cfg.BufferSize)
		st.pending = st.pending[:r.cfg.BufferSize]
	}
	st.mu.Unlock()
}

// EstimatorInfo is the public status of one registered estimator.
type EstimatorInfo struct {
	Name          string  `json:"name"`
	Method        string  `json:"method"`
	Columns       int     `json:"columns"`
	Observed      uint64  `json:"observed_total"`
	Dropped       uint64  `json:"dropped_total"`
	Backlog       int     `json:"backlog"`
	Estimates     uint64  `json:"estimates_total"`
	TrainRuns     uint64  `json:"train_runs"`
	TrainRunsFull uint64  `json:"train_runs_full"`
	TrainRunsIncr uint64  `json:"train_runs_incremental"`
	TrainErrors   uint64  `json:"train_errors"`
	LastTrainErr  string  `json:"last_train_error,omitempty"`
	LastTrainMode string  `json:"last_train_mode,omitempty"`
	LastTrainSecs float64 `json:"last_train_seconds"`
	Params        int     `json:"params"`

	// Lifecycle status.
	Policy      string  `json:"policy"`
	Version     int     `json:"version"`
	Promotions  uint64  `json:"promotions_total"`
	Rejections  uint64  `json:"rejections_total"`
	Rollbacks   uint64  `json:"rollbacks_total"`
	DriftEvents uint64  `json:"drift_events_total"`
	WindowMAE   float64 `json:"window_mae"`
	WindowQErr  float64 `json:"window_mean_qerror"`

	// Daemon-side latency percentiles in seconds (0 until the path has
	// served a request), read off the same log-linear histograms /metrics
	// exports in full.
	EstimateP50 float64 `json:"estimate_p50_seconds"`
	EstimateP95 float64 `json:"estimate_p95_seconds"`
	EstimateP99 float64 `json:"estimate_p99_seconds"`
	ObserveP50  float64 `json:"observe_p50_seconds"`
	ObserveP95  float64 `json:"observe_p95_seconds"`
	ObserveP99  float64 `json:"observe_p99_seconds"`

	// Realized q-error percentiles over every prequential sample since
	// creation (dimensionless; 0 until feedback has arrived) — the
	// distribution the window mean above summarizes.
	QErrorP50 float64 `json:"qerror_p50"`
	QErrorP95 float64 `json:"qerror_p95"`
	QErrorP99 float64 `json:"qerror_p99"`
}

func (r *Registry) info(st *estimatorState) EstimatorInfo {
	est := st.estimateHist.Snapshot()
	obsn := st.observeHist.Snapshot()
	qerr := st.qerrorHist.Snapshot()
	st.mu.Lock()
	defer st.mu.Unlock()
	track := st.tracker.Report()
	return EstimatorInfo{
		Name:          st.name,
		Method:        st.serving.Method(),
		Columns:       st.serving.Schema().Dim(),
		Observed:      st.observedTotal,
		Dropped:       st.droppedTotal,
		Backlog:       len(st.pending),
		Estimates:     st.estimateTotal.Load(),
		TrainRuns:     st.trainedTotal,
		TrainRunsFull: st.trainsFull,
		TrainRunsIncr: st.trainsIncr,
		TrainErrors:   st.trainErrors,
		LastTrainErr:  st.lastTrainErr,
		LastTrainMode: st.lastTrainMode,
		LastTrainSecs: st.lastTrainDur.Seconds(),
		Params:        st.serving.ParamCount(),
		Policy:        string(st.life.Policy),
		Version:       st.store.Current().ID,
		Promotions:    st.promotions,
		Rejections:    st.rejections,
		Rollbacks:     st.rollbacks,
		DriftEvents:   track.DriftEvents,
		WindowMAE:     track.MAE,
		WindowQErr:    track.MeanQError,
		EstimateP50:   est.Quantile(0.50).Seconds(),
		EstimateP95:   est.Quantile(0.95).Seconds(),
		EstimateP99:   est.Quantile(0.99).Seconds(),
		ObserveP50:    obsn.Quantile(0.50).Seconds(),
		ObserveP95:    obsn.Quantile(0.95).Seconds(),
		ObserveP99:    obsn.Quantile(0.99).Seconds(),
		QErrorP50:     qerr.ValueQuantile(0.50),
		QErrorP95:     qerr.ValueQuantile(0.95),
		QErrorP99:     qerr.ValueQuantile(0.99),
	}
}

// List reports the status of every registered estimator, sorted by name.
func (r *Registry) List() []EstimatorInfo {
	states := r.states()
	out := make([]EstimatorInfo, len(states))
	for i, st := range states {
		out[i] = r.info(st)
	}
	return out
}

// snapshotFile is the JSON shape of the persisted registry. Each estimator
// entry is a self-describing quicksel.Snapshot envelope carrying its method,
// so restoring never needs out-of-band backend knowledge. File version 4
// adds the write-ahead-log watermarks (per-estimator in the lifecycle
// entries, registry-wide in Wal); version 3 added the per-estimator
// lifecycle section (policy, accuracy tracker, version history); version 2
// corresponds to the method-aware envelopes; version-1 files (which could
// only hold quicksel-method estimators) still load. Older files load with
// fresh lifecycle state and zero watermarks (replay everything retained).
type snapshotFile struct {
	Version    int                           `json:"version"`
	Estimators map[string]*quicksel.Snapshot `json:"estimators"`
	// Lifecycles is the per-estimator lifecycle state (absent before v3).
	// The serving model's version payload is elided — it is the estimator's
	// envelope above — and reattached on load.
	Lifecycles map[string]*lifecycleEntry `json:"lifecycles,omitempty"`
	// Wal is the registry-wide log position (absent before v4 and when the
	// log is disabled).
	Wal *walFileInfo `json:"wal,omitempty"`
}

// walFileInfo records the snapshot's position in the write-ahead log.
type walFileInfo struct {
	// Covered is the highest log sequence number with every record at or
	// below it reflected in this snapshot; the log is compacted up to it
	// after the snapshot lands.
	Covered uint64 `json:"covered"`
}

// lifecycleEntry is the persisted lifecycle state of one estimator.
type lifecycleEntry struct {
	Config   lifecycle.Config        `json:"config"`
	Tracker  *lifecycle.TrackerState `json:"tracker,omitempty"`
	Versions *lifecycle.StoreState   `json:"versions,omitempty"`
	LastGate *lifecycle.ShadowResult `json:"last_gate,omitempty"`

	Observed   uint64 `json:"observed_total"`
	Trained    uint64 `json:"train_runs"`
	Promotions uint64 `json:"promotions_total"`
	Rejections uint64 `json:"rejections_total"`
	Rollbacks  uint64 `json:"rollbacks_total"`

	// WAL watermarks (v4; see internal/server/wal.go for the protocol).
	WalSeq      uint64 `json:"wal_seq,omitempty"`
	WalConsumed uint64 `json:"wal_consumed,omitempty"`
}

// snapshotFileVersion is the registry snapshot format this build writes.
const snapshotFileVersion = 4

// SaveSnapshot flushes every estimator's pending observations, trains, and
// atomically writes the full registry state to the configured snapshot
// path (WriteFileDurable), then compacts the log up to what it covers.
func (r *Registry) SaveSnapshot() error {
	if r.cfg.SnapshotPath == "" {
		return fmt.Errorf("server: no snapshot path configured")
	}
	// Flush first, then collect under the registry lock: an estimator
	// dropped between the two phases must not be written to the snapshot
	// (it would be resurrected on the next boot). A follower never flushes —
	// training at snapshot time would diverge its model from the primary's —
	// so its snapshots simply cover less and leave more log to replay.
	if r.IsPrimary() {
		for _, st := range r.states() {
			if err := r.flushAndTrain(st); err != nil {
				return err
			}
		}
	}
	// Time the snapshot itself — capture, serialize, write, rename — not
	// the flush above (those runs land in the train histogram).
	start := time.Now()
	out := snapshotFile{
		Version:    snapshotFileVersion,
		Estimators: map[string]*quicksel.Snapshot{},
		Lifecycles: map[string]*lifecycleEntry{},
	}
	// covered is the highest log seq this snapshot fully reflects: capped
	// by the first still-pending (buffered, untrained) observation of any
	// estimator, and by the log tail. The tail MUST be read before the
	// estimator captures below: an observation acknowledged concurrently
	// with the capture loop gets a seq past this tail and so stays
	// uncovered (and uncompacted), while anything at or below the tail was
	// enqueued under st.mu before our capture acquires it — visible either
	// in pending (capping covered) or absorbed in the captured model.
	// Creates and drops enqueue and publish under the exclusive r.mu, so
	// the RLock below keeps them consistent with this tail too.
	covered := uint64(math.MaxUint64)
	r.mu.RLock()
	if r.wal != nil {
		covered = r.wal.LastSeq()
	}
	for name, st := range r.estimators {
		// Capture the serving model and its lifecycle state in one critical
		// section of the same lock the trainer's swap takes: a train run (or
		// rollback) completing between two reads cannot produce a snapshot
		// whose version history disagrees with its serving model.
		st.mu.Lock()
		est := st.serving
		snap := est.Snapshot()
		entry := &lifecycleEntry{
			Config:      st.life,
			Tracker:     st.tracker.State(),
			Versions:    st.store.State(true),
			LastGate:    st.lastGate,
			Observed:    st.observedTotal,
			Trained:     st.trainedTotal,
			Promotions:  st.promotions,
			Rejections:  st.rejections,
			Rollbacks:   st.rollbacks,
			WalSeq:      st.walSeq,
			WalConsumed: st.walConsumed,
		}
		if len(st.pending) > 0 && st.pending[0].seq > 0 && st.pending[0].seq-1 < covered {
			covered = st.pending[0].seq - 1
		}
		st.mu.Unlock()
		if snap.Model == nil && len(snap.State) == 0 {
			// Estimator.Snapshot has no error return, so a backend whose
			// state failed to serialize yields an empty envelope. Refuse to
			// persist it: overwriting the previous good snapshot with one
			// that cannot restore would only be discovered at the next boot,
			// after the learned state is already gone.
			r.mu.RUnlock()
			return fmt.Errorf("server: estimator %q (%s) produced an empty snapshot; keeping the previous snapshot file", name, est.Method())
		}
		out.Estimators[name] = snap
		out.Lifecycles[name] = entry
	}
	if r.wal != nil {
		out.Wal = &walFileInfo{Covered: covered}
	}
	r.mu.RUnlock()
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	if err := WriteFileDurable(r.cfg.SnapshotPath, data); err != nil {
		return err
	}
	r.snapshotsSaved.Add(1)
	r.snapshotHist.Observe(time.Since(start))
	r.log.Debug("snapshot saved",
		slog.Int("estimators", len(out.Estimators)),
		slog.Int("bytes", len(data)),
		slog.Duration("duration", time.Since(start)),
	)
	if r.wal != nil && out.Wal != nil {
		// The snapshot is durable: log segments it makes redundant can go.
		// Compaction failure is not a snapshot failure — the log is merely
		// larger than it needs to be. Compaction never passes a live
		// follower's fetch watermark: a record a follower still needs must
		// stay on disk until the follower fetches it or goes stale
		// (FollowerRetention), at which point it must re-bootstrap from a
		// snapshot anyway.
		r.walLastCovered.Store(out.Wal.Covered)
		upTo := out.Wal.Covered
		if floor, ok := r.replicationFloor(time.Now()); ok && floor < upTo {
			r.log.Debug("compaction held back by follower watermark",
				slog.Uint64("covered", upTo), slog.Uint64("floor", floor))
			upTo = floor
		}
		_, _ = r.wal.Compact(upTo)
	}
	return nil
}

// WriteFileDurable replaces path with data so that a crash, even a power
// loss, leaves either the old file or the complete new one: it writes a
// temporary file beside path, fsyncs and closes it, renames it over path,
// and fsyncs the directory so the rename is durable too. A failed write
// leaves the old file untouched and removes the temporary file. Snapshots
// go through it because compaction deletes the log records a snapshot
// covers as soon as the snapshot is saved.
func WriteFileDurable(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadSnapshotFile restores all estimators from a snapshot file; a missing
// file is not an error (first boot).
//
// The load is hardened against torn writes and disk rot: a file that fails
// to decode — truncated JSON, unknown version, invalid names — is set
// aside as <path>.corrupt and logged, and the registry boots from whatever
// the write-ahead log can replay (or empty, when the log is disabled too).
// A daemon that recovers partial state and serves beats one that refuses
// to start over a file no operator intervention can fix. Individual
// estimator entries that fail to restore are likewise logged and skipped
// without poisoning their siblings.
func (r *Registry) loadSnapshotFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		// A read error (permissions, transient IO) is NOT corruption: the
		// file may be perfectly good, and booting empty would let the next
		// snapshot write overwrite it with nothing. Refuse to start and let
		// the operator fix the access problem.
		return fmt.Errorf("server: read snapshot: %w", err)
	}
	setAside := func(reason string) {
		corrupt := path + ".corrupt"
		if rerr := os.Rename(path, corrupt); rerr != nil {
			r.log.Warn("snapshot unusable; could not set aside, continuing without it",
				slog.String("path", path), slog.String("reason", reason), slog.Any("error", rerr))
			return
		}
		r.log.Warn("snapshot unusable; set aside, recovering from the write-ahead log",
			slog.String("path", path), slog.String("reason", reason), slog.String("moved_to", corrupt))
	}
	var in snapshotFile
	if err := json.Unmarshal(data, &in); err != nil {
		setAside(fmt.Sprintf("corrupt (%v)", err))
		return nil
	}
	if in.Version < 1 || in.Version > snapshotFileVersion {
		setAside(fmt.Sprintf("unsupported version %d (this build reads 1..%d)", in.Version, snapshotFileVersion))
		return nil
	}
	if in.Wal != nil {
		r.walLastCovered.Store(in.Wal.Covered)
	}
	skip := func(name string, err error) {
		r.log.Warn("snapshot restore: skipping estimator",
			slog.String("path", path), slog.String("estimator", name), slog.Any("error", err))
	}
	for name, snap := range in.Estimators {
		if !nameRE.MatchString(name) {
			skip(name, fmt.Errorf("invalid estimator name"))
			continue
		}
		est, err := quicksel.RestoreUntracked(snap)
		if err != nil {
			skip(name, err)
			continue
		}
		entry := in.Lifecycles[name] // nil for v1/v2 files: fresh lifecycle state
		if entry == nil {
			st, _, err := r.newState(name, est, lifecycle.OriginRestored)
			if err != nil {
				skip(name, err)
				continue
			}
			r.estimators[name] = st
			continue
		}
		life := entry.Config.WithDefaults()
		// Reattach the serving model as the current version's payload (it is
		// elided from the persisted store state to avoid writing the model
		// twice).
		payload, err := json.Marshal(snap)
		if err != nil {
			skip(name, fmt.Errorf("re-encode: %w", err))
			continue
		}
		r.estimators[name] = &estimatorState{
			name:          name,
			life:          life,
			serving:       est,
			tracker:       lifecycle.RestoreTracker(life, entry.Tracker),
			store:         lifecycle.RestoreStore(life.History, entry.Versions, payload),
			lastGate:      entry.LastGate,
			observedTotal: entry.Observed,
			trainedTotal:  entry.Trained,
			promotions:    entry.Promotions,
			rejections:    entry.Rejections,
			rollbacks:     entry.Rollbacks,
			walSeq:        entry.WalSeq,
			walConsumed:   entry.WalConsumed,
		}
	}
	return nil
}
