package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"quicksel/internal/obs"
)

// TrackerConfig tunes the health tracker. Zero values select the defaults
// noted on each field.
type TrackerConfig struct {
	// Interval is the steady-state poll period per node (default 1s). Each
	// cycle is jittered by up to ±25% so a fleet of routers doesn't
	// synchronize its probes.
	Interval time.Duration
	// BackoffMax caps the exponential backoff applied after consecutive
	// poll failures (default 8×Interval).
	BackoffMax time.Duration
	// Timeout bounds one probe round-trip (default min(Interval, 2s)).
	Timeout time.Duration
	// MaxReadLag is the bounded-staleness guard: a follower is a read
	// target only while its reported replication lag (records behind the
	// primary) is at or under this bound. Default 0 — only fully
	// caught-up followers serve reads.
	MaxReadLag uint64
	// Vnodes is the virtual-node count per shard on the placement ring
	// (default DefaultVnodes). Every router over one cluster must use the
	// same value, or they will disagree on ownership.
	Vnodes int
	// Client issues the probes; default is a plain http.Client with the
	// probe timeout.
	Client *http.Client
	// Logger receives role-flip and node-state transitions; default discards.
	Logger *slog.Logger
}

// NodeStatus is the tracker's latest view of one node.
type NodeStatus struct {
	ID   string `json:"id"`
	URL  string `json:"url"`
	Role string `json:"role,omitempty"` // "primary" | "follower" | "" before first contact
	// Ready mirrors the node's /readyz (snapshot restored, WAL replayed,
	// follower caught up or promoted).
	Ready bool `json:"ready"`
	// Healthy means the last probe round completed (the node answered,
	// even if not ready). A crashed node goes !Healthy within one backoff
	// cycle.
	Healthy bool `json:"healthy"`
	// Lag and CaughtUp are the follower's own replication report; both are
	// zero-valued on primaries.
	Lag      uint64 `json:"lag"`
	CaughtUp bool   `json:"caught_up"`
	// AdvertiseURL is the reachable base URL the node reports for itself
	// on /v1/replication/status; empty when the node predates -advertise-url.
	AdvertiseURL string `json:"advertise_url,omitempty"`
	// NodeID is the identity the node reports for itself (may differ from
	// the shard-map ID when the operator left map IDs defaulted).
	NodeID    string    `json:"node_id,omitempty"`
	LastProbe time.Time `json:"last_probe"`
	LastError string    `json:"last_error,omitempty"`
	Failures  uint64    `json:"failures"`
}

// ShardHealth is the tracker's aggregated view of one shard.
type ShardHealth struct {
	ID string `json:"id"`
	// PrimaryURL is the URL writes should aim at: the advertised URL of
	// the node most recently observed as a ready primary (or adopted from
	// an X-Quickseld-Primary hint). Empty until a primary is first seen.
	PrimaryURL string `json:"primary_url,omitempty"`
	// PrimaryLive reports whether the node behind PrimaryURL still looked
	// like a ready primary on its latest probe.
	PrimaryLive bool         `json:"primary_live"`
	Nodes       []NodeStatus `json:"nodes"`
}

type nodeState struct {
	shard string
	node  Node
	mu    sync.Mutex
	st    NodeStatus

	// Latest telemetry snapshot polled from GET /v1/telemetry (nil before
	// the first successful poll), guarded by mu. A failed poll keeps the
	// previous snapshot and its fetch time, so the node's staleness gauge
	// grows instead of the data vanishing.
	telem    *obs.Telemetry
	telemAt  time.Time
	telemErr string
}

// Tracker polls every node in a shard map — GET /readyz for serving
// readiness, GET /v1/replication/status for role, lag, and advertised
// address, and GET /v1/telemetry from healthy nodes for the federated
// cluster view (Telemetry, Federate) — with jittered intervals and
// exponential backoff on failure. It maintains each shard's primary
// pointer, flipping it when a follower is promoted, and answers
// placement-adjacent queries for a router: where do writes for a shard
// go, which followers are safe read targets, is the cluster ready.
type Tracker struct {
	ring *Ring
	cfg  TrackerConfig

	mu      sync.Mutex
	nodes   map[string][]*nodeState // shard ID -> states (map order)
	primary map[string]*primaryRef  // shard ID -> current write target

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

type primaryRef struct {
	url  string
	node string // node ID the URL was learned from; "" when adopted from a hint
}

// replStatusBody is the subset of GET /v1/replication/status the tracker
// consumes.
type replStatusBody struct {
	Role         string `json:"role"`
	NodeID       string `json:"node_id"`
	AdvertiseURL string `json:"advertise_url"`
	Replication  *struct {
		Lag      uint64 `json:"lag"`
		CaughtUp bool   `json:"caught_up"`
	} `json:"replication"`
}

// NewTracker builds a tracker over a map's nodes. Call Start to begin
// polling and Stop to halt; all query methods are safe before Start (they
// report an empty, not-ready view).
func NewTracker(m Map, cfg TrackerConfig) (*Tracker, error) {
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("cluster: tracker needs a non-empty map")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 8 * cfg.Interval
	}
	if cfg.BackoffMax < cfg.Interval {
		cfg.BackoffMax = cfg.Interval
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = cfg.Interval
		if cfg.Timeout > 2*time.Second {
			cfg.Timeout = 2 * time.Second
		}
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: cfg.Timeout}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	ring, err := NewRing(m, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	t := &Tracker{
		ring:    ring,
		cfg:     cfg,
		nodes:   make(map[string][]*nodeState, len(m.Shards)),
		primary: make(map[string]*primaryRef, len(m.Shards)),
		stop:    make(chan struct{}),
	}
	for _, sh := range m.Shards {
		states := make([]*nodeState, len(sh.Nodes))
		for i, n := range sh.Nodes {
			states[i] = &nodeState{shard: sh.ID, node: n, st: NodeStatus{ID: n.ID, URL: n.URL}}
		}
		t.nodes[sh.ID] = states
		// Nodes[0] is the presumed primary so writes have a target before
		// the first probe lands; the first observed ready primary corrects it.
		t.primary[sh.ID] = &primaryRef{url: sh.Nodes[0].URL, node: sh.Nodes[0].ID}
	}
	return t, nil
}

// Start launches one poll loop per node. Each loop probes immediately, so a
// healthy cluster reaches Ready within roughly one probe round-trip.
func (t *Tracker) Start() {
	for _, states := range t.nodes {
		for _, ns := range states {
			t.wg.Add(1)
			go t.pollLoop(ns)
		}
	}
}

// Stop halts all poll loops and waits for them to exit.
func (t *Tracker) Stop() {
	t.once.Do(func() { close(t.stop) })
	t.wg.Wait()
}

func (t *Tracker) pollLoop(ns *nodeState) {
	defer t.wg.Done()
	// Deterministic per-node jitter stream: no shared rand, no lock.
	rng := hashKey(ns.shard + "\x00" + ns.node.ID)
	next := func() uint64 { rng = mix64(rng + 0x9e3779b97f4a7c15); return rng }
	failures := 0
	for {
		ok := t.probe(ns)
		if ok {
			failures = 0
		} else {
			failures++
		}
		d := t.cfg.Interval
		if failures > 0 {
			// Exponential backoff: interval, 2x, 4x ... capped at BackoffMax.
			for i := 1; i < failures && d < t.cfg.BackoffMax; i++ {
				d *= 2
			}
			if d > t.cfg.BackoffMax {
				d = t.cfg.BackoffMax
			}
		}
		// Jitter ±25% so fleet probes decorrelate.
		j := time.Duration(next() % uint64(d/2))
		d = d*3/4 + j
		select {
		case <-t.stop:
			return
		case <-time.After(d):
		}
	}
}

// probe runs one health round against a node and folds the result into the
// tracker's state. Returns false when the node was unreachable (either
// endpoint transport-failed).
func (t *Tracker) probe(ns *nodeState) bool {
	ctx, cancel := context.WithTimeout(context.Background(), t.cfg.Timeout)
	defer cancel()

	ready, readyErr := t.probeReadyz(ctx, ns.node.URL)
	st, stErr := t.probeStatus(ctx, ns.node.URL)

	now := time.Now()
	ns.mu.Lock()
	prev := ns.st
	cur := NodeStatus{ID: ns.node.ID, URL: ns.node.URL, LastProbe: now, Failures: prev.Failures}
	switch {
	case readyErr != nil:
		cur.LastError = readyErr.Error()
	case stErr != nil:
		cur.LastError = stErr.Error()
	}
	if readyErr == nil && stErr == nil {
		cur.Healthy = true
		cur.Ready = ready
		cur.Role = st.Role
		cur.NodeID = st.NodeID
		cur.AdvertiseURL = st.AdvertiseURL
		if st.Replication != nil {
			cur.Lag = st.Replication.Lag
			cur.CaughtUp = st.Replication.CaughtUp
		} else if st.Role == rolePrimaryWire {
			cur.CaughtUp = true
		}
	} else {
		cur.Failures++
	}
	ns.st = cur
	ns.mu.Unlock()

	if cur.Healthy {
		tel, telErr := t.probeTelemetry(ctx, ns.node.URL)
		ns.mu.Lock()
		switch {
		case telErr != nil:
			ns.telemErr = telErr.Error()
		case tel.Version != obs.TelemetryVersion:
			ns.telemErr = fmt.Sprintf("unsupported telemetry version %d", tel.Version)
		default:
			ns.telem, ns.telemAt, ns.telemErr = tel, time.Now(), ""
		}
		ns.mu.Unlock()
	}

	if cur.Healthy != prev.Healthy || cur.Role != prev.Role || cur.Ready != prev.Ready {
		t.cfg.Logger.Info("node state",
			slog.String("shard", ns.shard), slog.String("node", ns.node.ID),
			slog.Bool("healthy", cur.Healthy), slog.Bool("ready", cur.Ready),
			slog.String("role", cur.Role), slog.String("err", cur.LastError))
	}
	t.reconcilePrimary(ns.shard)
	return cur.Healthy
}

// rolePrimaryWire matches internal/server's RolePrimary wire value without
// importing the server package (the tracker speaks only HTTP).
const rolePrimaryWire = "primary"

func (t *Tracker) probeReadyz(ctx context.Context, base string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return false, err
	}
	resp, err := t.cfg.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.StatusCode == http.StatusOK, nil
}

func (t *Tracker) probeStatus(ctx context.Context, base string) (replStatusBody, error) {
	var body replStatusBody
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/replication/status", nil)
	if err != nil {
		return body, err
	}
	resp, err := t.cfg.Client.Do(req)
	if err != nil {
		return body, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return body, fmt.Errorf("status %d from %s/v1/replication/status", resp.StatusCode, base)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil {
		return body, fmt.Errorf("decode replication status: %w", err)
	}
	return body, nil
}

// reconcilePrimary recomputes a shard's write target from the latest node
// states: a node observed as a ready primary wins (preferring its advertised
// URL); otherwise the previous pointer stands, marked not-live if its node
// stopped looking like a primary.
func (t *Tracker) reconcilePrimary(shard string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	states := t.nodes[shard]
	ref := t.primary[shard]
	for _, ns := range states {
		ns.mu.Lock()
		st := ns.st
		ns.mu.Unlock()
		if st.Healthy && st.Ready && st.Role == rolePrimaryWire {
			url := st.AdvertiseURL
			if url == "" {
				url = st.URL
			}
			if ref.url != url || ref.node != st.ID {
				t.cfg.Logger.Info("primary changed",
					slog.String("shard", shard), slog.String("node", st.ID), slog.String("url", url))
			}
			ref.url, ref.node = url, st.ID
			return
		}
	}
}

// AdoptPrimary records a router-observed primary hint (X-Quickseld-Primary
// from a 503) as a shard's write target ahead of the next probe cycle, so a
// retry can re-aim immediately instead of waiting out a poll interval.
func (t *Tracker) AdoptPrimary(shard, url string) {
	if url == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ref, ok := t.primary[shard]
	if !ok {
		return
	}
	if ref.url != url {
		t.cfg.Logger.Info("primary adopted from hint",
			slog.String("shard", shard), slog.String("url", url))
		ref.url, ref.node = url, ""
	}
}

// Owner returns the shard owning an estimator name (the tracker embeds the
// map's ring at DefaultVnodes).
func (t *Tracker) Owner(name string) string { return t.ring.Owner(name) }

// Ring exposes the tracker's placement ring.
func (t *Tracker) Ring() *Ring { return t.ring }

// PrimaryURL returns a shard's current write target and whether the node
// behind it still looked like a ready primary on its latest probe. The URL
// is non-empty even when not live (the presumed/last-known primary), so a
// caller can still attempt and rely on the 503-hint retry path.
func (t *Tracker) PrimaryURL(shard string) (string, bool) {
	t.mu.Lock()
	ref, ok := t.primary[shard]
	if !ok {
		t.mu.Unlock()
		return "", false
	}
	url, nodeID := ref.url, ref.node
	states := t.nodes[shard]
	t.mu.Unlock()
	for _, ns := range states {
		ns.mu.Lock()
		st := ns.st
		ns.mu.Unlock()
		if st.ID == nodeID && st.Healthy && st.Ready && st.Role == rolePrimaryWire {
			return url, true
		}
	}
	return url, false
}

// ReadTargets returns the URLs estimate reads for a shard may use: the
// primary target plus every healthy, ready follower whose reported lag is
// within MaxReadLag (and which reports itself caught up when MaxReadLag is
// zero). The primary is always first.
func (t *Tracker) ReadTargets(shard string) []string {
	purl, _ := t.PrimaryURL(shard)
	out := make([]string, 0, 4)
	if purl != "" {
		out = append(out, purl)
	}
	t.mu.Lock()
	states := t.nodes[shard]
	t.mu.Unlock()
	for _, ns := range states {
		ns.mu.Lock()
		st := ns.st
		ns.mu.Unlock()
		if !st.Healthy || !st.Ready || st.Role == rolePrimaryWire {
			continue
		}
		if t.cfg.MaxReadLag == 0 && !st.CaughtUp {
			continue
		}
		if st.Lag > t.cfg.MaxReadLag {
			continue
		}
		url := st.AdvertiseURL
		if url == "" {
			url = st.URL
		}
		if url != purl {
			out = append(out, url)
		}
	}
	return out
}

// Ready reports whether every shard has a live, ready primary — the
// router's /readyz condition.
func (t *Tracker) Ready() bool {
	for _, shard := range t.ring.Shards() {
		if _, live := t.PrimaryURL(shard); !live {
			return false
		}
	}
	return true
}

// Snapshot returns the full cluster view, shards in ring order — the body
// of the router's GET /v1/cluster/status.
func (t *Tracker) Snapshot() []ShardHealth {
	out := make([]ShardHealth, 0, len(t.ring.Shards()))
	for _, shard := range t.ring.Shards() {
		url, live := t.PrimaryURL(shard)
		sh := ShardHealth{ID: shard, PrimaryURL: url, PrimaryLive: live}
		t.mu.Lock()
		states := t.nodes[shard]
		t.mu.Unlock()
		for _, ns := range states {
			ns.mu.Lock()
			sh.Nodes = append(sh.Nodes, ns.st)
			ns.mu.Unlock()
		}
		out = append(out, sh)
	}
	return out
}
