// Command quickseld is the selectivity-serving daemon: a long-lived
// HTTP/JSON service hosting named estimators, with background training and
// durable model snapshots. Each estimator is backed by a pluggable
// estimation method — QuickSel's mixture model by default, or one of the
// paper's baselines (sthole, isomer, maxent, sample, scanhist) selected by
// the create request's "method" field — behind one uniform API.
//
// Usage:
//
//	quickseld -addr :7075 -snapshot /var/lib/quickseld/state.json
//
// Endpoints (full reference with request/response bodies: docs/API.md):
//
//	POST   /v1/estimators            create an estimator (JSON schema + method)
//	GET    /v1/estimators            list estimators with serving stats
//	DELETE /v1/estimators/{name}     drop an estimator
//	POST   /v1/{name}/observe        ingest one observation or a batch
//	GET    /v1/{name}/estimate       estimate a WHERE clause (?where=...)
//	POST   /v1/{name}/estimate/batch estimate many WHERE clauses in one call
//	POST   /v1/{name}/train          synchronously flush + retrain
//	GET    /v1/{name}/versions       list the estimator's model versions
//	POST   /v1/{name}/rollback       restore an archived model version
//	GET    /v1/{name}/accuracy       realized accuracy, drift, and gate status
//	POST   /v1/snapshot              force a snapshot write
//	GET    /v1/replication/wal       stream WAL records to a follower (?from=seq)
//	GET    /v1/replication/snapshot  snapshot bootstrap for followers
//	POST   /v1/replication/promote   promote this follower to primary (failover)
//	GET    /v1/replication/status    replication role, watermarks, follower table
//	GET    /v1/telemetry             versioned telemetry snapshot (mergeable by a router)
//	GET    /metrics                  Prometheus metrics (labeled by method)
//	GET    /healthz                  liveness probe
//	GET    /readyz                   readiness probe (snapshot restored, WAL replayed, trainer running / replication caught up)
//	GET    /debug/requests           recent request/train traces with stage timings
//	GET    /debug/pprof/             runtime profiles (opt-in via -pprof)
//
// The daemon logs structured records (log/slog) to stderr; -log-level and
// -log-format=text|json control verbosity and shape. Every /v1 request is
// traced — assigned an X-Request-Id, timed per stage (decode, model,
// encode) — and retained in a fixed-size ring served by /debug/requests;
// requests slower than -slow-request are logged with their stage
// breakdown. /readyz answers 503 from the first accepted connection until
// snapshot restore and WAL replay finish, so load balancers hold traffic
// during a long recovery while /healthz already reports the process live.
//
// Every estimator runs inside the model lifecycle (internal/lifecycle): an
// accuracy tracker scores the serving model on each incoming observation, a
// Page–Hinkley detector raises drift alarms that trigger immediate
// retraining, every trained model becomes an immutable numbered version,
// and the -retrain-policy flag (or the per-estimator "retrain_policy"
// create option) decides whether a freshly trained challenger is swapped in
// unconditionally (always), held for manual promotion (never), or
// shadow-scored against the serving champion on held-out feedback and
// promoted only if it wins (shadow).
//
// With -wal-dir set, the daemon also appends every acknowledged
// observation (plus estimator creates and drops) to a group-committed
// write-ahead log (internal/wal) before acknowledging it:
// a crash — even kill -9 — loses nothing a client was told succeeded. On
// restart the daemon restores the snapshot, replays the log suffix the
// snapshot does not cover, and resumes in the state an uncrashed run would
// hold. Snapshots compact the log, deleting segments they make redundant.
// -wal-fsync picks the durability point (always = survives power loss,
// interval = survives a killed process, never = OS-paced) and
// -wal-segment-size the rotation threshold.
//
// With -role=follower -primary-url=http://primary:7075, the daemon runs as
// a read-only replica: it bootstraps from the primary's snapshot, tails the
// primary's WAL (resumable, jittered exponential backoff), and applies the
// records through the same replay path crash recovery uses, so its state is
// bit-identical to a recovery of the primary. Writes are refused with 503 +
// Retry-After and an X-Quickseld-Primary pointer; /readyz gates on the
// follower being caught up; POST /v1/replication/promote flips it to
// primary (stops the fetch loop, starts the trainer). On the primary,
// -repl-ack=follower makes write acks additionally wait for a follower's
// fetch watermark (semi-sync), so failover after a primary kill loses no
// acknowledged observation. See ARCHITECTURE.md "Replication & failover".
//
// On SIGINT/SIGTERM the daemon drains in-flight requests, flushes and
// trains every estimator, and persists a final snapshot; restarting with
// the same -snapshot path serves identical estimates for every method.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"quicksel/internal/lifecycle"
	"quicksel/internal/obs"
	"quicksel/internal/server"
	"quicksel/internal/wal"
)

// flagValues carries the parsed command line; buildConfig validates it and
// assembles the server configuration.
type flagValues struct {
	snapshotPath   string
	trainInterval  time.Duration
	snapInterval   time.Duration
	bufferSize     int
	seed           int64
	retrainPolicy  string
	driftThreshold float64
	accuracyWindow int
	versionHistory int
	walDir         string
	walFsync       string
	walSegmentSize int64
	logLevel       string
	logFormat      string
	pprof          bool
	traceRing      int
	slowRequest    time.Duration
	traceSample    float64

	// Replication (see ARCHITECTURE.md "Replication & failover").
	role              string
	primaryURL        string
	advertiseURL      string
	nodeID            string
	replAck           string
	replAckTimeout    time.Duration
	replPollWait      time.Duration
	replBackoffMin    time.Duration
	replBackoffMax    time.Duration
	followerRetention time.Duration
}

// buildConfig rejects garbage flag values at startup with errors that name
// the flag, instead of letting a zero or negative knob propagate into the
// registry as a silently-weird default.
func buildConfig(v flagValues) (server.Config, error) {
	if v.bufferSize <= 0 {
		return server.Config{}, fmt.Errorf("-buffer must be a positive observation count, got %d", v.bufferSize)
	}
	if v.trainInterval <= 0 {
		return server.Config{}, fmt.Errorf("-train-interval must be a positive duration, got %s", v.trainInterval)
	}
	if v.snapInterval < 0 {
		return server.Config{}, fmt.Errorf("-snapshot-interval must not be negative, got %s", v.snapInterval)
	}
	if v.accuracyWindow <= 0 {
		return server.Config{}, fmt.Errorf("-accuracy-window must be a positive sample count, got %d", v.accuracyWindow)
	}
	if v.versionHistory <= 0 {
		return server.Config{}, fmt.Errorf("-version-history must be a positive version count, got %d", v.versionHistory)
	}
	if math.IsNaN(v.driftThreshold) {
		return server.Config{}, fmt.Errorf("-drift-threshold must not be NaN")
	}
	if _, err := lifecycle.ParsePolicy(v.retrainPolicy); err != nil {
		return server.Config{}, fmt.Errorf("-retrain-policy: %w", err)
	}
	if _, err := wal.ParsePolicy(v.walFsync); err != nil {
		return server.Config{}, fmt.Errorf("-wal-fsync: %w", err)
	}
	if v.walSegmentSize <= 0 {
		return server.Config{}, fmt.Errorf("-wal-segment-size must be a positive byte count, got %d", v.walSegmentSize)
	}
	level, err := obs.ParseLevel(v.logLevel)
	if err != nil {
		return server.Config{}, fmt.Errorf("-log-level: %w", err)
	}
	logger, err := obs.NewLogger(os.Stderr, level, v.logFormat)
	if err != nil {
		return server.Config{}, fmt.Errorf("-log-format: %w", err)
	}
	if v.traceRing < 0 {
		return server.Config{}, fmt.Errorf("-trace-ring must not be negative, got %d", v.traceRing)
	}
	if math.IsNaN(v.traceSample) || v.traceSample < 0 || v.traceSample > 1 {
		return server.Config{}, fmt.Errorf("-trace-sample must be in [0.0, 1.0], got %g", v.traceSample)
	}
	// Flag semantics: 0.0 disables tracing outright. Config semantics: the
	// zero value selects the default rate, negative disables — so map here.
	traceSample := v.traceSample
	if traceSample == 0 {
		traceSample = -1
	}
	role, err := server.ParseRole(v.role)
	if err != nil {
		return server.Config{}, fmt.Errorf("-role: %w", err)
	}
	if _, err := server.ParseAckMode(v.replAck); err != nil {
		return server.Config{}, fmt.Errorf("-repl-ack: %w", err)
	}
	if role == server.RoleFollower {
		if v.primaryURL == "" {
			return server.Config{}, fmt.Errorf("-role=follower requires -primary-url")
		}
		if v.walDir == "" {
			return server.Config{}, fmt.Errorf("-role=follower requires -wal-dir (the follower stores fetched records in its own log)")
		}
		if v.snapshotPath == "" {
			return server.Config{}, fmt.Errorf("-role=follower requires -snapshot (bootstrap and restart state)")
		}
	}
	if v.primaryURL != "" && !strings.HasPrefix(v.primaryURL, "http://") && !strings.HasPrefix(v.primaryURL, "https://") {
		return server.Config{}, fmt.Errorf("-primary-url must be an http(s) base URL, got %q", v.primaryURL)
	}
	if v.advertiseURL != "" && !strings.HasPrefix(v.advertiseURL, "http://") && !strings.HasPrefix(v.advertiseURL, "https://") {
		return server.Config{}, fmt.Errorf("-advertise-url must be an http(s) base URL, got %q", v.advertiseURL)
	}
	// Zero replication durations fall through to the package defaults;
	// only actively bad values are rejected.
	if v.replAckTimeout < 0 {
		return server.Config{}, fmt.Errorf("-repl-ack-timeout must not be negative, got %s", v.replAckTimeout)
	}
	if v.replPollWait < 0 || v.replPollWait > server.MaxReplicationWait {
		return server.Config{}, fmt.Errorf("-repl-poll-wait must be in [0, %s], got %s", server.MaxReplicationWait, v.replPollWait)
	}
	if v.replBackoffMin < 0 || v.replBackoffMax < 0 {
		return server.Config{}, fmt.Errorf("-repl-backoff-min/-repl-backoff-max must not be negative, got %s and %s", v.replBackoffMin, v.replBackoffMax)
	}
	if v.replBackoffMin > 0 && v.replBackoffMax > 0 && v.replBackoffMax < v.replBackoffMin {
		return server.Config{}, fmt.Errorf("-repl-backoff-max (%s) must be at least -repl-backoff-min (%s)", v.replBackoffMax, v.replBackoffMin)
	}
	if v.followerRetention < 0 {
		return server.Config{}, fmt.Errorf("-follower-retention must not be negative, got %s", v.followerRetention)
	}
	return server.Config{
		SnapshotPath:     v.snapshotPath,
		TrainInterval:    v.trainInterval,
		SnapshotInterval: v.snapInterval,
		BufferSize:       v.bufferSize,
		Seed:             v.seed,
		Lifecycle: lifecycle.Config{
			Policy:         lifecycle.Policy(v.retrainPolicy),
			DriftThreshold: v.driftThreshold,
			Window:         v.accuracyWindow,
			History:        v.versionHistory,
		},
		WALDir:         v.walDir,
		WALSync:        v.walFsync,
		WALSegmentSize: v.walSegmentSize,
		Logger:         logger,
		TraceRingSize:  v.traceRing,
		SlowRequest:    v.slowRequest,
		TraceSample:    traceSample,
		Pprof:          v.pprof,

		Role:                  role,
		PrimaryURL:            v.primaryURL,
		NodeID:                v.nodeID,
		AdvertiseURL:          strings.TrimSuffix(v.advertiseURL, "/"),
		ReplicationAck:        v.replAck,
		ReplicationAckTimeout: v.replAckTimeout,
		FollowerRetention:     v.followerRetention,
	}, nil
}

func main() {
	var v flagValues
	addr := flag.String("addr", ":7075", "listen address")
	flag.StringVar(&v.snapshotPath, "snapshot", "", "snapshot file for durable model state (empty disables persistence)")
	flag.DurationVar(&v.trainInterval, "train-interval", server.DefaultTrainInterval, "debounce interval of the background training worker")
	flag.DurationVar(&v.snapInterval, "snapshot-interval", 0, "periodic snapshot interval (0 = only on shutdown and POST /v1/snapshot)")
	flag.IntVar(&v.bufferSize, "buffer", server.DefaultBufferSize, "per-estimator pending-observation buffer size")
	flag.Int64Var(&v.seed, "seed", 0, "default model seed for new estimators")

	flag.StringVar(&v.retrainPolicy, "retrain-policy", "", "default promotion policy for trained models: always (default), never, or shadow")
	flag.Float64Var(&v.driftThreshold, "drift-threshold", 0, "Page-Hinkley drift alarm threshold on realized estimate error (0 = default 0.25, negative disables)")
	flag.IntVar(&v.accuracyWindow, "accuracy-window", lifecycle.DefaultWindow, "rolling realized-accuracy window per estimator (samples)")
	flag.IntVar(&v.versionHistory, "version-history", lifecycle.DefaultHistory, "archived model versions kept per estimator for rollback")

	flag.StringVar(&v.walDir, "wal-dir", "", "write-ahead observation log directory (empty disables the log; see ARCHITECTURE.md \"Durability\")")
	flag.StringVar(&v.walFsync, "wal-fsync", "interval", "WAL fsync policy: always (acked observations survive power loss), interval (survive a killed process; background fsync), or never")
	flag.Int64Var(&v.walSegmentSize, "wal-segment-size", wal.DefaultSegmentSize, "WAL segment rotation threshold in bytes")

	flag.StringVar(&v.role, "role", server.RolePrimary, "replication role: primary or follower")
	flag.StringVar(&v.primaryURL, "primary-url", "", "primary's base URL (required with -role=follower; e.g. http://10.0.0.1:7075)")
	flag.StringVar(&v.advertiseURL, "advertise-url", "", "base URL at which THIS node is reachable by clients and routers; stamped on X-Quickseld-Primary redirect hints and /v1/replication/status (e.g. http://10.0.0.2:7075)")
	flag.StringVar(&v.nodeID, "node-id", "", "stable node identity reported on /v1/replication/status; a follower's primary tracks it under this ID (default hostname+addr)")
	flag.StringVar(&v.replAck, "repl-ack", server.AckPrimary, "write acknowledgment mode on the primary: primary (local durability) or follower (semi-sync: wait for a follower's fetch watermark)")
	flag.DurationVar(&v.replAckTimeout, "repl-ack-timeout", server.DefaultReplicationAckTimeout, "semi-sync ack wait bound before degrading to a local ack")
	flag.DurationVar(&v.replPollWait, "repl-poll-wait", 5*time.Second, "follower long-poll duration per WAL fetch")
	flag.DurationVar(&v.replBackoffMin, "repl-backoff-min", 100*time.Millisecond, "follower fetch retry backoff floor")
	flag.DurationVar(&v.replBackoffMax, "repl-backoff-max", 5*time.Second, "follower fetch retry backoff ceiling")
	flag.DurationVar(&v.followerRetention, "follower-retention", server.DefaultFollowerRetention, "how long a follower's watermark holds back WAL compaction after its last fetch")

	flag.StringVar(&v.logLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
	flag.StringVar(&v.logFormat, "log-format", "text", "log record format: text or json")
	flag.BoolVar(&v.pprof, "pprof", false, "serve runtime profiles under /debug/pprof/ (opt-in: profiles expose call stacks and heap contents)")
	flag.IntVar(&v.traceRing, "trace-ring", server.DefaultTraceRingSize, "completed request/train traces retained for GET /debug/requests")
	flag.DurationVar(&v.slowRequest, "slow-request", server.DefaultSlowRequest, "log requests slower than this with their stage breakdown (negative disables)")
	flag.Float64Var(&v.traceSample, "trace-sample", 1.0, "fraction of requests traced, 0.0-1.0, deterministic by request-id hash (an upstream router's sampling decision wins)")
	flag.Parse()

	if v.nodeID == "" {
		host, _ := os.Hostname()
		v.nodeID = host + *addr
	}
	cfg, err := buildConfig(v)
	if err != nil {
		slog.Error("quickseld: invalid flags", slog.Any("error", err))
		os.Exit(1)
	}
	logger := cfg.Logger
	fatal := func(msg string, err error) {
		logger.Error(msg, slog.Any("error", err))
		os.Exit(1)
	}

	// Bind the listen address before building the registry: snapshot restore
	// and WAL replay can take a while, and during that window the boot-gate
	// handler answers /healthz 200 (the process is live) but everything else
	// 503 (not ready), so probes and load balancers see an honest picture
	// instead of connection-refused. Once server.New returns, the real
	// handler is swapped in atomically.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("quickseld: listen", err)
	}
	var handler atomic.Pointer[http.Handler]
	boot := newBootHandler()
	handler.Store(&boot)
	httpSrv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handler.Load()).ServeHTTP(w, r)
		}),
		// Slow-client protection on every stage of a connection's life. The
		// write timeout must comfortably exceed the replication long-poll cap
		// (a follower fetch may hold its response for MaxReplicationWait)
		// and a semi-sync observe's ack wait.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      server.MaxReplicationWait + 30*time.Second,
		IdleTimeout:       120 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// srvSlot holds the live server (nil during a follower re-bootstrap);
	// stopRepl stops the follower lifecycle before the final close.
	var srvSlot atomic.Pointer[server.Server]
	stopRepl := func() {}
	if cfg.Role == server.RoleFollower {
		stop := make(chan struct{})
		replDone := make(chan struct{})
		go func() {
			defer close(replDone)
			runFollower(cfg, v, logger, &handler, &srvSlot, stop)
		}()
		stopRepl = func() { close(stop); <-replDone }
	} else {
		srv, err := server.New(cfg)
		if err != nil {
			fatal("quickseld: startup", err)
		}
		srvSlot.Store(srv)
		real := http.Handler(srv)
		handler.Store(&real)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		logger.Info("quickseld: shutting down", slog.String("signal", s.String()))
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Warn("quickseld: http shutdown", slog.Any("error", err))
		}
	}()

	logger.Info("quickseld: serving",
		slog.String("addr", ln.Addr().String()),
		slog.String("role", cfg.Role),
		slog.String("snapshot", v.snapshotPath),
		slog.String("wal", v.walDir),
		slog.Bool("pprof", v.pprof),
	)
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("quickseld: serve", err)
	}
	<-done
	stopRepl()
	// Drain state: flush pending observations, train (primary only), and
	// persist the final snapshot, so a clean restart replays a minimal WAL
	// suffix instead of the whole retained log.
	if srv := srvSlot.Load(); srv != nil {
		if err := srv.Close(); err != nil {
			fatal("quickseld: close", err)
		}
		reg := srv.Registry()
		logger.Info("quickseld: final checkpoint",
			slog.Uint64("covered_seq", reg.LastCovered()),
			slog.Uint64("last_seq", reg.ReplicationResume()-1))
	}
	logger.Info("quickseld: bye")
}

// newBootHandler serves the startup window between bind and readiness:
// liveness is already true, readiness and everything else honestly 503.
func newBootHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"ready":false,"reason":"starting up"}`)
	})
	return mux
}
