// Command quickselrouter is the cluster front door for a sharded quickseld
// deployment: it places estimators on shards with a consistent-hash ring,
// tracks each shard's primary through health probes of the PR-7 replication
// layer, and proxies the /v1 surface so clients talk to one address while
// the cluster fails over, promotes, and rebalances underneath.
//
// Usage:
//
//	quickselrouter -addr :7070 \
//	  -shard "s0=http://10.0.0.1:7075,http://10.0.0.2:7075" \
//	  -shard "s1=http://10.0.1.1:7075,http://10.0.1.2:7075" \
//	  -read-from-followers
//
// Each -shard names one shard and lists its nodes; the first node is the
// presumed primary until health probes of /readyz and
// /v1/replication/status observe the actual roles. Writes go to the owning
// shard's primary; a 503 carrying X-Quickseld-Primary (a demoted node
// pointing at the promoted one) re-aims the router and is retried once.
// With -read-from-followers, estimate reads round-robin across the primary
// and every healthy follower within -max-read-lag records of the primary.
//
// Endpoints (full reference: docs/API.md):
//
//	POST   /v1/estimators            create (routed by the body's "name")
//	GET    /v1/estimators            list, fanned out to all shards and merged
//	DELETE /v1/estimators/{name}     drop, routed to the owner
//	POST   /v1/{name}/observe        observe, routed to the owner's primary
//	GET    /v1/{name}/estimate       estimate (follower-balanced when enabled)
//	POST   /v1/{name}/estimate/batch single-estimator batch (same read policy)
//	POST   /v1/estimate/batch        multi-estimator batch, split by ring
//	                                 owner, fanned out, merged in input order
//	POST   /v1/{name}/train          train, routed to the owner's primary
//	GET    /v1/{name}/versions       versions, routed to the owner's primary
//	POST   /v1/{name}/rollback       rollback, routed to the owner's primary
//	GET    /v1/{name}/accuracy       accuracy, routed to the owner's primary
//	POST   /v1/snapshot              snapshot, fanned out to every primary
//	GET    /v1/cluster/status        ring version + per-shard node health
//	GET    /v1/cluster/telemetry     federated cluster telemetry (merged + per node)
//	GET    /metrics                  router metrics, cluster-merged
//	                                 quickselcluster_* families, runtime gauges
//	GET    /healthz                  liveness probe
//	GET    /readyz                   readiness: every shard has a live primary
//	GET    /debug/requests           completed-trace ring, stitched router→shard
//
// The router opens each traced request's root span and forwards trace
// context to the shard on X-Quickseld-Traceparent; the shard echoes its
// completed span back, so /debug/requests shows one stitched tree per
// request. -trace-sample bounds tracing overhead at high QPS.
//
// On SIGINT/SIGTERM the router flips /readyz to 503 (so load balancers
// drain it), then gracefully finishes in-flight proxied requests before
// exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"quicksel/internal/cluster"
	"quicksel/internal/obs"
)

// parseShardFlag parses one -shard value: "id=url,url,...".
func parseShardFlag(v string) (cluster.Shard, error) {
	id, urls, ok := strings.Cut(v, "=")
	id = strings.TrimSpace(id)
	if !ok || id == "" || strings.TrimSpace(urls) == "" {
		return cluster.Shard{}, fmt.Errorf("-shard wants \"id=url,url,...\", got %q", v)
	}
	sh := cluster.Shard{ID: id}
	for _, u := range strings.Split(urls, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		sh.Nodes = append(sh.Nodes, cluster.Node{URL: u})
	}
	if len(sh.Nodes) == 0 {
		return cluster.Shard{}, fmt.Errorf("-shard %q lists no node URLs", id)
	}
	return sh, nil
}

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	var shards []cluster.Shard
	var shardErr error
	flag.Func("shard", "shard spec \"id=url,url,...\" — first URL is the presumed primary; repeat per shard", func(v string) error {
		sh, err := parseShardFlag(v)
		if err != nil {
			shardErr = err
			return err
		}
		shards = append(shards, sh)
		return nil
	})
	vnodes := flag.Int("vnodes", cluster.DefaultVnodes, "virtual nodes per shard on the placement ring (must match across routers)")
	readFromFollowers := flag.Bool("read-from-followers", false, "balance estimate reads across caught-up healthy followers")
	maxReadLag := flag.Uint64("max-read-lag", 0, "staleness bound for follower reads, in WAL records behind the primary (0 = fully caught up only)")
	healthInterval := flag.Duration("health-interval", time.Second, "per-node health probe period")
	proxyTimeout := flag.Duration("proxy-timeout", 30*time.Second, "per-attempt bound on one proxied shard request")
	traceSample := flag.Float64("trace-sample", 1.0, "fraction of requests traced, 0.0-1.0, deterministic by request-id hash (propagated cluster-wide)")
	traceRing := flag.Int("trace-ring", 256, "completed-trace ring capacity behind GET /debug/requests")
	slowRequest := flag.Duration("slow-request", 500*time.Millisecond, "slow-trace log threshold with dominant-hop attribution (0 disables)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	logFormat := flag.String("log-format", "text", "log record format: text or json")
	flag.Parse()

	fatal := func(msg string, err error) {
		slog.Error(msg, slog.Any("error", err))
		os.Exit(1)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatal("quickselrouter: -log-level", err)
	}
	logger, err := obs.NewLogger(os.Stderr, level, *logFormat)
	if err != nil {
		fatal("quickselrouter: -log-format", err)
	}
	if shardErr != nil {
		fatal("quickselrouter: -shard", shardErr)
	}
	if len(shards) == 0 {
		fatal("quickselrouter: flags", errors.New("at least one -shard is required"))
	}
	if *healthInterval <= 0 {
		fatal("quickselrouter: flags", errors.New("-health-interval must be a positive duration"))
	}
	if *vnodes <= 0 {
		fatal("quickselrouter: flags", errors.New("-vnodes must be positive"))
	}
	if *proxyTimeout <= 0 {
		fatal("quickselrouter: flags", errors.New("-proxy-timeout must be a positive duration"))
	}
	if *traceSample < 0 || *traceSample > 1 {
		fatal("quickselrouter: flags", errors.New("-trace-sample must be in [0.0, 1.0]"))
	}
	if *traceRing <= 0 {
		fatal("quickselrouter: flags", errors.New("-trace-ring must be positive"))
	}

	m, err := cluster.BuildMap(shards)
	if err != nil {
		fatal("quickselrouter: -shard", err)
	}
	tracker, err := cluster.NewTracker(m, cluster.TrackerConfig{
		Interval:   *healthInterval,
		MaxReadLag: *maxReadLag,
		Vnodes:     *vnodes,
		Logger:     logger,
	})
	if err != nil {
		fatal("quickselrouter: tracker", err)
	}
	tracker.Start()
	defer tracker.Stop()

	router := newRouter(tracker, routerConfig{
		readFromFollowers: *readFromFollowers,
		client:            &http.Client{Timeout: *proxyTimeout},
		log:               logger,
		traceSample:       *traceSample,
		traceRingSize:     *traceRing,
		slowRequest:       *slowRequest,
		// A snapshot older than three health cycles means the node stopped
		// answering its telemetry poll: flag it stale.
		staleAfter: 3 * *healthInterval,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("quickselrouter: listen", err)
	}
	httpSrv := &http.Server{
		Handler:           router,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      *proxyTimeout + 30*time.Second,
		IdleTimeout:       120 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		logger.Info("quickselrouter: draining", slog.String("signal", s.String()))
		// Fail readiness first so load balancers stop sending new work,
		// then give in-flight proxied requests a grace window to finish.
		router.SetDraining()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Warn("quickselrouter: http shutdown", slog.Any("error", err))
		}
	}()

	logger.Info("quickselrouter: serving",
		slog.String("addr", ln.Addr().String()),
		slog.Int("shards", len(shards)),
		slog.Int("vnodes", *vnodes),
		slog.Bool("read_from_followers", *readFromFollowers),
		slog.String("ring_version", fmt.Sprintf("%016x", tracker.Ring().Version())),
	)
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("quickselrouter: serve", err)
	}
	<-done
	logger.Info("quickselrouter: bye")
}
