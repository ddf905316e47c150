package server

import (
	"net/http"
	"time"

	"quicksel/internal/obs"
)

// collect assembles the daemon's complete metric state — every counter,
// gauge, and histogram family /metrics exposes, with histograms in raw
// mergeable bucket form — as one versioned obs.Telemetry snapshot. It backs
// both GET /metrics (rendered to text exposition) and GET /v1/telemetry
// (served as JSON for the router's federation poll), so the two views can
// never drift apart.
func (s *Server) collect() obs.Telemetry {
	t := obs.Telemetry{
		Version:       obs.TelemetryVersion,
		Node:          s.reg.cfg.NodeID,
		Role:          s.reg.Role(),
		UptimeSeconds: time.Since(s.reg.start).Seconds(),
	}
	counter, gauge := t.AddCounter, t.AddGauge

	for i, rt := range s.routes {
		counter(rt.counter, rt.help, s.served[i].Load())
	}
	counter("quickseld_requests_role_rejected_total", "Write requests refused because this node is a read-only follower.", s.reqRoleRejected.Load())
	counter("quickseld_request_errors_total", "Requests answered with a non-2xx status.", s.reqErrors.Load())
	counter("quickseld_snapshots_saved_total", "Registry snapshots persisted.", s.reg.snapshotsSaved.Load())
	counter("quickseld_snapshot_errors_total", "Registry snapshot writes that failed.", s.reg.snapshotErrs.Load())

	// Write-ahead log series: append/fsync/replay/compaction counters and
	// the log-lag gauges that tell an operator how much history a crash
	// (sync lag) or the next recovery (snapshot lag) would have to chew on.
	if s.reg.wal != nil {
		ws := s.reg.wal.Stats()
		counter("quickseld_wal_appends_total", "Records appended to the write-ahead log.", ws.Appended)
		counter("quickseld_wal_flushes_total", "Group-commit write batches (appends/flushes is the commit fan-in).", ws.Flushes)
		counter("quickseld_wal_fsyncs_total", "fsync calls on log segments.", ws.Fsyncs)
		counter("quickseld_wal_rotations_total", "Log segment rotations.", ws.Rotations)
		counter("quickseld_wal_compacted_segments_total", "Log segments deleted by snapshot-driven compaction.", ws.CompactedSegments)
		counter("quickseld_wal_append_errors_total", "Appends that failed the durability wait.", s.reg.walAppendErrs.Load())
		counter("quickseld_wal_replayed_records_total", "Records replayed into the registry at startup.", s.reg.walReplayed.Load())
		counter("quickseld_wal_replay_skipped_total", "Undecodable or invalid records skipped during replay or replication.", s.reg.walReplaySkipped.Load())
		counter("quickseld_wal_truncated_bytes_total", "Torn-tail bytes truncated at open.", ws.TruncatedBytes)
		gauge("quickseld_wal_segments", "Retained log segment files.", float64(ws.Segments))
		gauge("quickseld_wal_size_bytes", "Retained log bytes on disk.", float64(ws.SizeBytes))
		gauge("quickseld_wal_last_seq", "Highest assigned log sequence number.", float64(ws.LastSeq))
		gauge("quickseld_wal_durable_seq", "Highest acknowledged-durable sequence number.", float64(ws.DurableSeq))
		gauge("quickseld_wal_sync_lag", "Acknowledged records not yet fsynced (lost only with the machine, not the process).", float64(clampSub(ws.LastSeq, ws.SyncedSeq)))
		gauge("quickseld_wal_snapshot_lag", "Records the last snapshot does not cover (the replay cost of a crash right now).", float64(clampSub(ws.LastSeq, s.reg.walLastCovered.Load())))
	}

	// Replication series. quickseld_primary identifies the role; the
	// primary exports its follower table summary and semi-sync counters,
	// a follower its fetch-loop state — most importantly
	// quickseld_replication_lag, the records it is behind the primary's
	// durable tail (also gating /readyz).
	primary := 0.0
	if s.reg.IsPrimary() {
		primary = 1
	}
	gauge("quickseld_primary", "1 on the primary, 0 on a read-only follower.", primary)
	if s.reg.IsPrimary() {
		live := 0.0
		for _, f := range s.reg.Followers() {
			if f.Live {
				live++
			}
		}
		gauge("quickseld_replication_followers", "Followers that fetched within the retention window.", live)
		counter("quickseld_replication_ack_waits_total", "Writes that waited for a follower ack (semi-sync mode).", s.reg.ackWaits.Load())
		counter("quickseld_replication_ack_timeouts_total", "Semi-sync ack waits that timed out and degraded to a local ack.", s.reg.ackTimeouts.Load())
	} else if s.reg.fetcher != nil {
		st := s.reg.fetcher.Stats()
		gauge("quickseld_replication_lag", "Records this follower is behind the primary's durable tail.", float64(st.Lag))
		caught := 0.0
		if st.CaughtUp {
			caught = 1
		}
		gauge("quickseld_replication_caught_up", "Whether the follower has reached the primary's tail at least once.", caught)
		healthy := 0.0
		if st.Healthy {
			healthy = 1
		}
		gauge("quickseld_replication_healthy", "Whether the fetch loop completed a round recently.", healthy)
		counter("quickseld_replication_fetches_total", "WAL fetch rounds attempted.", st.Fetches)
		counter("quickseld_replication_fetch_errors_total", "Fetch rounds that failed (transport, 5xx, unusable body).", st.FetchErrors)
		counter("quickseld_replication_torn_responses_total", "Responses with a torn or corrupt tail (verified prefix kept).", st.TornResponses)
		counter("quickseld_replication_gap_responses_total", "410 responses (suffix compacted away; snapshot re-bootstrap).", st.GapResponses)
		counter("quickseld_replication_records_total", "Records fetched and handed to the registry.", st.Records)
		counter("quickseld_replication_applied_total", "Fetched records applied to registry state.", s.reg.replApplied.Load())
		counter("quickseld_replication_bytes_total", "Replication response bytes fetched.", st.Bytes)
	}

	infos := s.reg.List()
	gauge("quickseld_estimators", "Registered estimators.", float64(len(infos)))

	// Per-method registry population: how many estimators each estimation
	// backend (quicksel, sthole, ...) is serving. Methods are emitted in
	// first-seen order of the name-sorted infos, which is deterministic.
	byMethodFam := obs.Family{
		Name: "quickseld_estimators_by_method",
		Help: "Registered estimators per estimation method.", Type: "gauge",
	}
	byMethod := map[string]int{}
	var methodOrder []string
	for _, in := range infos {
		if byMethod[in.Method] == 0 {
			methodOrder = append(methodOrder, in.Method)
		}
		byMethod[in.Method]++
	}
	for _, m := range methodOrder {
		byMethodFam.Series = append(byMethodFam.Series, obs.NumSeries{
			Labels: map[string]string{"method": m}, Value: float64(byMethod[m]),
		})
	}
	t.Families = append(t.Families, byMethodFam)

	// Every per-estimator series carries the estimator's method as a label,
	// so dashboards can aggregate and compare backends directly.
	perEst := func(name, help, typ string, value func(EstimatorInfo) float64) {
		f := obs.Family{Name: name, Help: help, Type: typ}
		for _, in := range infos {
			f.Series = append(f.Series, obs.NumSeries{
				Labels: map[string]string{"estimator": in.Name, "method": in.Method},
				Value:  value(in),
			})
		}
		t.Families = append(t.Families, f)
	}
	perEst("quickseld_observations_total", "Observations accepted into the pending buffer.", "counter",
		func(in EstimatorInfo) float64 { return float64(in.Observed) })
	perEst("quickseld_observations_dropped_total", "Observations dropped on a full buffer.", "counter",
		func(in EstimatorInfo) float64 { return float64(in.Dropped) })
	perEst("quickseld_estimates_total", "Estimates served.", "counter",
		func(in EstimatorInfo) float64 { return float64(in.Estimates) })
	perEst("quickseld_train_runs_total", "Background training runs completed.", "counter",
		func(in EstimatorInfo) float64 { return float64(in.TrainRuns) })
	// Per-mode training runs: full refits vs warm-start incremental re-solves
	// (QuickSel with WithWarmStart; every other method only ever trains full).
	byModeFam := obs.Family{
		Name: "quickseld_train_runs_by_mode_total",
		Help: "Background training runs completed, by training mode.", Type: "counter",
	}
	for _, in := range infos {
		byModeFam.Series = append(byModeFam.Series,
			obs.NumSeries{
				Labels: map[string]string{"estimator": in.Name, "method": in.Method, "train_mode": "full"},
				Value:  float64(in.TrainRunsFull),
			},
			obs.NumSeries{
				Labels: map[string]string{"estimator": in.Name, "method": in.Method, "train_mode": "incremental"},
				Value:  float64(in.TrainRunsIncr),
			},
		)
	}
	t.Families = append(t.Families, byModeFam)
	perEst("quickseld_train_errors_total", "Training runs that failed (batch requeued).", "counter",
		func(in EstimatorInfo) float64 { return float64(in.TrainErrors) })
	perEst("quickseld_observation_backlog", "Observations queued awaiting training.", "gauge",
		func(in EstimatorInfo) float64 { return float64(in.Backlog) })
	perEst("quickseld_last_train_seconds", "Duration of the last training run.", "gauge",
		func(in EstimatorInfo) float64 { return in.LastTrainSecs })
	perEst("quickseld_model_params", "Model parameters in the serving model (subpopulation weights, bucket frequencies, sampled coordinates, or grid cells, depending on the method).", "gauge",
		func(in EstimatorInfo) float64 { return float64(in.Params) })

	// Lifecycle series: drift detection, champion/challenger promotion, and
	// version bookkeeping, all labeled by estimator and method.
	perEst("quickseld_drift_events_total", "Drift alarms raised by the Page-Hinkley detector over realized estimate error.", "counter",
		func(in EstimatorInfo) float64 { return float64(in.DriftEvents) })
	perEst("quickseld_promotions_total", "Trained models promoted into the serving slot.", "counter",
		func(in EstimatorInfo) float64 { return float64(in.Promotions) })
	perEst("quickseld_promotions_rejected_total", "Trained challengers the shadow gate turned down (archived, never served).", "counter",
		func(in EstimatorInfo) float64 { return float64(in.Rejections) })
	perEst("quickseld_rollbacks_total", "Explicit version rollbacks served.", "counter",
		func(in EstimatorInfo) float64 { return float64(in.Rollbacks) })
	perEst("quickseld_model_version", "Immutable version number of the serving model.", "gauge",
		func(in EstimatorInfo) float64 { return float64(in.Version) })
	perEst("quickseld_window_mae", "Mean absolute error over the rolling realized-accuracy window.", "gauge",
		func(in EstimatorInfo) float64 { return in.WindowMAE })
	perEst("quickseld_window_mean_qerror", "Mean q-error over the rolling realized-accuracy window.", "gauge",
		func(in EstimatorInfo) float64 { return in.WindowQErr })

	// Histogram families, exported in full as raw mergeable buckets (the
	// log-linear layout behind the percentile summaries in EstimatorInfo).
	// Per-estimator families label every series with estimator+method; an
	// empty family is a bare header, which is valid exposition.
	states := s.reg.states()
	labels := make([]map[string]string, len(states))
	for i, st := range states {
		st.mu.Lock()
		method := st.serving.Method()
		st.mu.Unlock()
		labels[i] = map[string]string{"estimator": st.name, "method": method}
	}
	perEstHist := func(name, help, unit string, snap func(*estimatorState) obs.HistSnapshot) {
		f := obs.Family{Name: name, Help: help, Type: "histogram", Unit: unit}
		for i, st := range states {
			f.Hist = append(f.Hist, obs.HistSeriesFrom(labels[i], snap(st)))
		}
		t.Families = append(t.Families, f)
	}
	perEstHist("quickseld_observe_duration_seconds", "Observe ingest latency, decode to durable ack.", "",
		func(st *estimatorState) obs.HistSnapshot { return st.observeHist.Snapshot() })
	perEstHist("quickseld_estimate_duration_seconds", "Single-estimate latency.", "",
		func(st *estimatorState) obs.HistSnapshot { return st.estimateHist.Snapshot() })
	perEstHist("quickseld_estimate_batch_duration_seconds", "Batch-estimate latency, whole batch.", "",
		func(st *estimatorState) obs.HistSnapshot { return st.batchHist.Snapshot() })
	// The q-error family is dimensionless (Unit "value"): the full realized
	// accuracy distribution per estimator, federated cluster-wide so drift
	// shows up as a moving p95 on the router before Page-Hinkley fires.
	perEstHist("quickseld_qerror", "Realized q-error of each prequential sample (serving model's estimate vs observed selectivity).", "value",
		func(st *estimatorState) obs.HistSnapshot { return st.qerrorHist.Snapshot() })
	// Training latency carries a train_mode label: full refits and failed
	// runs land in the "full" series, warm-start incremental re-solves in
	// "incremental", so dashboards can see the speedup directly.
	trainFam := obs.Family{
		Name: "quickseld_train_duration_seconds",
		Help: "Background training run latency, flush to swap, by training mode.", Type: "histogram",
	}
	for i, st := range states {
		full := map[string]string{"train_mode": "full"}
		incr := map[string]string{"train_mode": "incremental"}
		for k, v := range labels[i] {
			full[k], incr[k] = v, v
		}
		trainFam.Hist = append(trainFam.Hist,
			obs.HistSeriesFrom(full, st.trainHist.Snapshot()),
			obs.HistSeriesFrom(incr, st.trainIncrHist.Snapshot()),
		)
	}
	t.Families = append(t.Families, trainFam)

	hist := func(name, help string, snap obs.HistSnapshot) {
		t.Families = append(t.Families, obs.Family{
			Name: name, Help: help, Type: "histogram",
			Hist: []obs.HistSeries{obs.HistSeriesFrom(nil, snap)},
		})
	}
	hist("quickseld_snapshot_duration_seconds", "Registry snapshot serialize-and-rename latency.", s.reg.snapshotHist.Snapshot())
	if s.reg.wal != nil {
		hist("quickseld_wal_append_duration_seconds", "Group-commit segment write latency.", s.reg.walAppendHist.Snapshot())
		hist("quickseld_wal_fsync_duration_seconds", "Segment fsync latency.", s.reg.walFsyncHist.Snapshot())
	}

	ready := 0.0
	if s.reg.Readiness().Ready {
		ready = 1
	}
	gauge("quickseld_ready", "Whether the daemon is ready to serve (snapshot restored, WAL replayed, trainer running).", ready)
	return t
}

// handleTelemetry serves the versioned JSON telemetry snapshot behind the
// router's federation poll: the same families as /metrics, histograms as raw
// mergeable bucket counts instead of rendered text.
func (s *Server) handleTelemetry(w http.ResponseWriter, _ *http.Request) {
	t := s.collect()
	s.writeJSON(w, http.StatusOK, t)
}
