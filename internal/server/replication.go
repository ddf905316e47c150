package server

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"time"

	"quicksel/internal/replica"
	"quicksel/internal/wal"
)

// Primary/follower replication. A primary ships its write-ahead log over
// GET /v1/replication/wal: the follower's fetch loop (internal/replica)
// pulls dense runs of frames from the durable tail, appends them to its own
// log under the same sequence numbers (wal.Options.InitialSeq aligns an
// empty follower log with the bootstrap snapshot's covered watermark), and
// applies them through the same code path crash recovery uses — so
// follower state tracks the primary bit-identically, records never ship
// before they are durable on the primary, and a follower restart resumes
// from its local log with no primary-side session state.
//
// The from parameter of each fetch doubles as the follower's cumulative
// acknowledgment. The primary keeps a per-follower watermark from it,
// which feeds two mechanisms:
//
//   - Compaction floor: SaveSnapshot never compacts past the minimum
//     watermark of any follower seen within Config.FollowerRetention, so a
//     briefly-lagging follower finds its suffix still on disk. A follower
//     that outlives retention gets 410 Gone and re-bootstraps from
//     GET /v1/replication/snapshot — segments are never silently dropped
//     out from under a live tail.
//   - Semi-sync acks: under Config.ReplicationAck == AckFollower, writes
//     (observe/create/drop) additionally wait — bounded by
//     ReplicationAckTimeout, degrading to local-durability acks with a
//     counter when followers are absent or slow — until a follower's
//     watermark covers the record, so killing the primary cannot lose an
//     acknowledged write that no follower has.
//
// Promotion (POST /v1/replication/promote) flips the role: the daemon
// stops the fetch loop first, then Registry.Promote marks the registry
// primary and starts the training worker; buffered replicated observations
// train exactly as they would have on the old primary.

// Replication roles.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
)

// ParseRole validates a Config.Role ("" selects RolePrimary).
func ParseRole(s string) (string, error) {
	switch s {
	case "", RolePrimary:
		return RolePrimary, nil
	case RoleFollower:
		return RoleFollower, nil
	}
	return "", fmt.Errorf("server: unknown role %q (valid: %s, %s)", s, RolePrimary, RoleFollower)
}

// Acknowledgment modes for Config.ReplicationAck.
const (
	// AckPrimary acknowledges a write once it is durable on the primary's
	// own log (the pre-replication behaviour).
	AckPrimary = "primary"
	// AckFollower additionally waits until a follower's fetch watermark
	// covers the write (semi-synchronous replication).
	AckFollower = "follower"
)

// ParseAckMode validates a Config.ReplicationAck ("" selects AckPrimary).
func ParseAckMode(s string) (string, error) {
	switch s {
	case "", AckPrimary:
		return AckPrimary, nil
	case AckFollower:
		return AckFollower, nil
	}
	return "", fmt.Errorf("server: unknown replication ack mode %q (valid: %s, %s)", s, AckPrimary, AckFollower)
}

// Defaults for the replication Config fields left zero.
const (
	DefaultReplicationAckTimeout = 2 * time.Second
	DefaultFollowerRetention     = 10 * time.Minute
	// DefaultReplicationBatchBytes is the per-fetch response cap when the
	// client does not send max_bytes; MaxReplicationBatchBytes bounds what a
	// client may request.
	DefaultReplicationBatchBytes = 4 << 20
	MaxReplicationBatchBytes     = 16 << 20
	// MaxReplicationWait caps the server-side long-poll duration of one WAL
	// fetch. It must stay below any front-door write timeout.
	MaxReplicationWait = 30 * time.Second
	// replicationPollInterval is the long-poll wakeup cadence while waiting
	// for the durable tail to reach the requested sequence.
	replicationPollInterval = 5 * time.Millisecond
)

// followerWatermark is the primary's record of one follower: the highest
// sequence the follower has confirmed applied (by fetching past it) and
// when it last fetched.
type followerWatermark struct {
	seq  uint64
	seen time.Time
}

// ackWaiter parks one semi-sync write until a follower watermark reaches
// seq (ch is closed) or the timeout degrades the ack.
type ackWaiter struct {
	seq uint64
	ch  chan struct{}
}

// Role reports the registry's current replication role; a follower's role
// changes to RolePrimary after Promote.
func (r *Registry) Role() string {
	if r.primary.Load() {
		return RolePrimary
	}
	return RoleFollower
}

// IsPrimary reports whether the registry currently serves the primary role.
func (r *Registry) IsPrimary() bool { return r.primary.Load() }

// PrimaryURL reports the upstream primary's base URL ("" on a primary).
// A live address learned from the replication stream — the primary stamps
// its -advertise-url on WAL responses — takes precedence over the
// configured -primary-url, so the 503 hint a follower hands write clients
// stays correct after a failover re-points the fetch loop.
func (r *Registry) PrimaryURL() string {
	if st := r.replicationStatus(); st != nil && st.PrimaryURL != "" {
		return st.PrimaryURL
	}
	return r.cfg.PrimaryURL
}

// LastCovered reports the covered sequence number of the last persisted
// snapshot (0 before one lands).
func (r *Registry) LastCovered() uint64 { return r.walLastCovered.Load() }

// ReplicationResume reports the next log sequence number this registry
// needs — the follower fetch loop's resumable watermark.
func (r *Registry) ReplicationResume() uint64 {
	if r.wal == nil {
		return 1
	}
	return r.wal.LastSeq() + 1
}

// Promote flips a follower to the primary role and starts the background
// training worker (exactly once, even across repeated calls), so the
// replicated observations buffered during followership train on the usual
// cadence. It reports whether a flip happened; promoting a primary is a
// no-op. The caller must stop feeding Replicate first (the daemon stops
// the fetch loop before calling this).
func (r *Registry) Promote() (promoted bool, err error) {
	r.mu.Lock()
	select {
	case <-r.done:
		r.mu.Unlock()
		return false, fmt.Errorf("server: registry is closed")
	default:
	}
	if r.primary.Load() {
		r.mu.Unlock()
		return false, nil
	}
	r.primary.Store(true)
	start := !r.trainerStarted
	if start {
		r.trainerStarted = true
		r.wg.Add(1)
	}
	r.mu.Unlock()
	if start {
		go r.trainLoop()
	}
	r.log.Info("promoted to primary",
		slog.Uint64("applied", r.replApplied.Load()),
		slog.Uint64("last_seq", r.ReplicationResume()-1))
	r.kick()
	return true, nil
}

// Replicate appends a dense run of primary log records to the local log —
// under their original sequence numbers — and applies them, exactly as
// crash recovery would replay them. Records at or below the local tail are
// skipped (an idempotent refetch overlap); a run that would leave a hole
// is refused. It returns only once the records are durable locally.
func (r *Registry) Replicate(recs []wal.Record) error {
	if r.IsPrimary() {
		return fmt.Errorf("server: a primary does not replicate")
	}
	if r.wal == nil {
		return fmt.Errorf("server: replication requires the write-ahead log")
	}
	next := r.wal.LastSeq() + 1
	i := 0
	for i < len(recs) && recs[i].Seq < next {
		i++
	}
	recs = recs[i:]
	if len(recs) == 0 {
		return nil
	}
	if recs[0].Seq != next {
		return fmt.Errorf("server: replication gap: got seq %d, local log ends at %d", recs[0].Seq, next-1)
	}
	for j := 1; j < len(recs); j++ {
		if recs[j].Seq != next+uint64(j) {
			return fmt.Errorf("server: replication run not dense at seq %d", recs[j].Seq)
		}
	}
	// The local log assigns sequence numbers densely from its tail, so the
	// appended records keep exactly the primary's numbering.
	if _, err := r.wal.Append(recs...); err != nil {
		return fmt.Errorf("server: replicate append: %w", err)
	}
	for _, rec := range recs {
		if r.applyRecord(rec) {
			r.replApplied.Add(1)
		}
	}
	return nil
}

// followerLoop is the follower's background worker: periodic snapshots
// only (no training). It exits when the registry closes or is promoted —
// trainLoop owns the snapshot cadence from promotion on.
func (r *Registry) followerLoop() {
	defer r.wg.Done()
	if r.cfg.SnapshotInterval <= 0 || r.cfg.SnapshotPath == "" {
		return
	}
	ticker := time.NewTicker(r.cfg.SnapshotInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-ticker.C:
			if r.IsPrimary() {
				return
			}
			if err := r.SaveSnapshot(); err != nil {
				r.snapshotErrs.Add(1)
				r.log.Error("periodic snapshot failed", slog.Any("error", err))
			}
		}
	}
}

// UpdateFollowerAck records that the named follower has applied everything
// at or below seq, and releases any semi-sync waiters that watermark now
// satisfies.
func (r *Registry) UpdateFollowerAck(id string, seq uint64) {
	if id == "" {
		return
	}
	now := time.Now()
	r.replMu.Lock()
	if r.followers == nil {
		r.followers = map[string]*followerWatermark{}
	}
	fw := r.followers[id]
	if fw == nil {
		fw = &followerWatermark{}
		r.followers[id] = fw
		r.log.Info("follower attached", slog.String("follower", id), slog.Uint64("acked", seq))
	}
	if seq > fw.seq {
		fw.seq = seq
	}
	fw.seen = now
	max := r.maxAckLocked(now)
	kept := r.ackWaiters[:0]
	for _, wtr := range r.ackWaiters {
		if wtr.seq <= max {
			close(wtr.ch)
		} else {
			kept = append(kept, wtr)
		}
	}
	r.ackWaiters = kept
	r.replMu.Unlock()
}

// maxAckLocked is the highest watermark of any live follower (seen within
// FollowerRetention). Callers hold replMu.
func (r *Registry) maxAckLocked(now time.Time) uint64 {
	var max uint64
	for _, fw := range r.followers {
		if now.Sub(fw.seen) <= r.cfg.FollowerRetention && fw.seq > max {
			max = fw.seq
		}
	}
	return max
}

// replicationFloor is the compaction floor imposed by live followers: the
// minimum fetch watermark among followers seen within FollowerRetention
// (ok=false when none are live — compaction is then unconstrained).
func (r *Registry) replicationFloor(now time.Time) (floor uint64, ok bool) {
	r.replMu.Lock()
	defer r.replMu.Unlock()
	for id, fw := range r.followers {
		if now.Sub(fw.seen) > r.cfg.FollowerRetention {
			delete(r.followers, id) // stale: it re-bootstraps if it returns
			continue
		}
		if !ok || fw.seq < floor {
			floor, ok = fw.seq, true
		}
	}
	return floor, ok
}

// waitReplicated parks a semi-sync write until a live follower's watermark
// covers seq. It degrades to a local ack — counted, logged — when the wait
// times out, no follower has ever attached, or the registry is closing.
func (r *Registry) waitReplicated(seq uint64) {
	if seq == 0 || r.cfg.ReplicationAck != AckFollower || !r.IsPrimary() {
		return
	}
	now := time.Now()
	r.replMu.Lock()
	if len(r.followers) == 0 || r.maxAckLocked(now) >= seq {
		// No follower has ever attached (async degrade: a lone primary must
		// not stall every write), or the watermark already covers us.
		r.replMu.Unlock()
		return
	}
	wtr := &ackWaiter{seq: seq, ch: make(chan struct{})}
	r.ackWaiters = append(r.ackWaiters, wtr)
	r.replMu.Unlock()
	r.ackWaits.Add(1)
	t := time.NewTimer(r.cfg.ReplicationAckTimeout)
	defer t.Stop()
	select {
	case <-wtr.ch:
		return
	case <-t.C:
		r.ackTimeouts.Add(1)
		r.log.Warn("replication ack timeout; acknowledging on local durability only",
			slog.Uint64("seq", seq), slog.Duration("timeout", r.cfg.ReplicationAckTimeout))
	case <-r.done:
	}
	r.replMu.Lock()
	for i, w := range r.ackWaiters {
		if w == wtr {
			r.ackWaiters = append(r.ackWaiters[:i], r.ackWaiters[i+1:]...)
			break
		}
	}
	r.replMu.Unlock()
}

// FollowerInfo is the primary's view of one attached follower.
type FollowerInfo struct {
	ID        string    `json:"id"`
	AckedSeq  uint64    `json:"acked_seq"`
	LastFetch time.Time `json:"last_fetch"`
	Live      bool      `json:"live"`
}

// Followers lists the primary's attached followers (including stale ones
// not yet pruned by a snapshot cycle), sorted by ID.
func (r *Registry) Followers() []FollowerInfo {
	now := time.Now()
	r.replMu.Lock()
	defer r.replMu.Unlock()
	out := make([]FollowerInfo, 0, len(r.followers))
	for id, fw := range r.followers {
		out = append(out, FollowerInfo{
			ID:        id,
			AckedSeq:  fw.seq,
			LastFetch: fw.seen,
			Live:      now.Sub(fw.seen) <= r.cfg.FollowerRetention,
		})
	}
	sortFollowers(out)
	return out
}

func sortFollowers(fs []FollowerInfo) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].ID < fs[j-1].ID; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// SetReplicationStatus installs the follower's live status source, the
// fetch loop's Stats, surfaced on /readyz, /metrics, and
// GET /v1/replication/status.
func (r *Registry) SetReplicationStatus(fn func() replica.Stats) {
	r.replStatus.Store(&fn)
}

func (r *Registry) replicationStatus() *replica.Stats {
	p := r.replStatus.Load()
	if p == nil {
		return nil
	}
	st := (*p)()
	return &st
}

// ---- HTTP handlers (routes registered in New) ----

// handleReplicationWAL serves GET /v1/replication/wal: a dense run of
// CRC32C-framed records from ?from up to the durable tail, long-polling up
// to ?wait when the tail is behind. The from parameter is also the
// follower's ack (see UpdateFollowerAck). 410 Gone directs a follower
// whose suffix is compacted away to the snapshot endpoint.
func (s *Server) handleReplicationWAL(w http.ResponseWriter, r *http.Request) {
	if !s.reg.IsPrimary() {
		s.reqErrors.Add(1)
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "replication source must be the primary"})
		return
	}
	wlog := s.reg.wal
	if wlog == nil {
		s.reqErrors.Add(1)
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "replication requires the write-ahead log (start the primary with -wal-dir)"})
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		s.writeError(w, fmt.Errorf("from must be a positive sequence number"))
		return
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		if wait, err = time.ParseDuration(v); err != nil {
			s.writeError(w, fmt.Errorf("bad wait duration: %w", err))
			return
		}
		if wait > MaxReplicationWait {
			wait = MaxReplicationWait
		}
	}
	maxBytes := DefaultReplicationBatchBytes
	if v := q.Get("max_bytes"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.writeError(w, fmt.Errorf("max_bytes must be a positive integer"))
			return
		}
		if n < maxBytes {
			maxBytes = n
		}
		if n > MaxReplicationBatchBytes {
			maxBytes = MaxReplicationBatchBytes
		}
	}
	// Fetching from=N acknowledges every record below N as applied.
	s.reg.UpdateFollowerAck(q.Get("follower"), from-1)

	deadline := time.Now().Add(wait)
	var frames []byte
	var first, last uint64
	for {
		if from <= wlog.DurableSeq() {
			frames, first, last, err = wlog.CollectFrames(from, wlog.DurableSeq(), maxBytes)
			if errors.Is(err, wal.ErrCompacted) {
				s.reqErrors.Add(1)
				s.writeJSON(w, http.StatusGone, errorBody{Error: fmt.Sprintf(
					"records from seq %d are compacted away (log starts at %d); re-bootstrap from /v1/replication/snapshot",
					from, wlog.FirstSeq())})
				return
			}
			if err != nil {
				s.reqErrors.Add(1)
				s.writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
				return
			}
			break
		}
		if wait <= 0 || !time.Now().Before(deadline) {
			break
		}
		select {
		case <-r.Context().Done():
			return // client gone; nothing to answer
		case <-time.After(replicationPollInterval):
		}
	}
	w.Header().Set(replica.HeaderFirst, strconv.FormatUint(first, 10))
	w.Header().Set(replica.HeaderLast, strconv.FormatUint(last, 10))
	w.Header().Set(replica.HeaderTail, strconv.FormatUint(wlog.DurableSeq(), 10))
	if au := s.reg.cfg.AdvertiseURL; au != "" {
		// Self-identification: followers learn the primary's reachable
		// address from the stream itself, so the hint they hand write
		// clients survives -primary-url pointing at a proxy or 0.0.0.0.
		w.Header().Set(replica.HeaderPrimary, au)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frames)
}

// handleReplicationSnapshot serves GET /v1/replication/snapshot: a fresh
// registry snapshot for follower bootstrap, with the covered sequence in
// X-Quickseld-Wal-Covered. 204 when the primary runs without a snapshot
// path (the follower then starts empty and tails from sequence 1).
func (s *Server) handleReplicationSnapshot(w http.ResponseWriter, _ *http.Request) {
	if !s.reg.IsPrimary() {
		s.reqErrors.Add(1)
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "replication source must be the primary"})
		return
	}
	if s.reg.cfg.SnapshotPath == "" {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if err := s.reg.SaveSnapshot(); err != nil {
		s.reqErrors.Add(1)
		s.writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	data, err := os.ReadFile(s.reg.cfg.SnapshotPath)
	if err != nil {
		s.reqErrors.Add(1)
		s.writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set(replica.HeaderCovered, strconv.FormatUint(s.reg.LastCovered(), 10))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// SetPromoteHook installs the daemon's promotion sequence (stop the fetch
// loop, then Registry.Promote) behind POST /v1/replication/promote. Without
// a hook the handler calls Registry.Promote directly.
func (s *Server) SetPromoteHook(fn func() (bool, error)) {
	s.promoteHook.Store(&fn)
}

// handlePromote serves POST /v1/replication/promote: health-check- or
// operator-driven failover.
func (s *Server) handlePromote(w http.ResponseWriter, _ *http.Request) {
	promote := s.reg.Promote
	if p := s.promoteHook.Load(); p != nil {
		promote = *p
	}
	promoted, err := promote()
	if err != nil {
		s.reqErrors.Add(1)
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	status := "already_primary"
	if promoted {
		status = "promoted"
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":   status,
		"role":     s.reg.Role(),
		"last_seq": s.reg.ReplicationResume() - 1,
	})
}

// handleReplicationStatus serves GET /v1/replication/status: the node's
// role plus the primary's follower table or the follower's catch-up state.
func (s *Server) handleReplicationStatus(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{
		"role":     s.reg.Role(),
		"ack_mode": s.reg.cfg.ReplicationAck,
	}
	if id := s.reg.cfg.NodeID; id != "" {
		resp["node_id"] = id
	}
	if au := s.reg.cfg.AdvertiseURL; au != "" {
		resp["advertise_url"] = au
	}
	if wlog := s.reg.wal; wlog != nil {
		resp["wal"] = map[string]uint64{
			"first_seq":   wlog.FirstSeq(),
			"last_seq":    wlog.LastSeq(),
			"durable_seq": wlog.DurableSeq(),
			"covered":     s.reg.LastCovered(),
		}
	}
	if s.reg.IsPrimary() {
		resp["followers"] = s.reg.Followers()
		resp["ack_waits"] = s.reg.ackWaits.Load()
		resp["ack_timeouts"] = s.reg.ackTimeouts.Load()
	} else {
		resp["primary_url"] = s.reg.PrimaryURL()
		resp["applied"] = s.reg.replApplied.Load()
		if st := s.reg.replicationStatus(); st != nil {
			resp["replication"] = st
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}
