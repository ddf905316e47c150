package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"quicksel/internal/lifecycle"
)

// testNode is a Node served on httptest and run on its own goroutine.
type testNode struct {
	*Node
	ts *httptest.Server
	// stop cancels Run and waits for it; close also closes the node.
	stop, close func()
}

// nodeConfig is a node in its own directories with training only at the
// test's explicit train points.
func nodeConfig(t *testing.T) Config {
	dir := t.TempDir()
	return Config{
		SnapshotPath:  filepath.Join(dir, "state.json"),
		WALDir:        filepath.Join(dir, "wal"),
		TrainInterval: time.Hour,
		Lifecycle:     lifecycle.Config{DriftThreshold: -1},
	}
}

// startNode serves a node for cfg on handler(node) — the node itself when
// handler is nil — and starts Run.
func startNode(t *testing.T, cfg Config, fetch FetchConfig, handler func(http.Handler) http.Handler) *testNode {
	t.Helper()
	n := NewNode(cfg, fetch)
	var h http.Handler = n
	if handler != nil {
		h = handler(n)
	}
	tn := &testNode{Node: n, ts: httptest.NewServer(h)}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- n.Run(ctx) }()
	var stopO, closeO sync.Once
	tn.stop = func() {
		stopO.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("Run: %v", err)
			}
		})
	}
	tn.close = func() {
		tn.stop()
		closeO.Do(func() {
			if err := n.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
	}
	t.Cleanup(func() {
		tn.close()
		tn.ts.Close()
	})
	return tn
}

// crash kills the node's listener and connections without closing the
// node: nothing is flushed, trained or persisted.
func (tn *testNode) crash() {
	tn.ts.Listener.Close()
	tn.ts.CloseClientConnections()
}

func (tn *testNode) waitReady(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, body := doJSON(t, "GET", tn.ts.URL+"/readyz", "")
		if status == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never became ready: %d %s", status, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (tn *testNode) observedTotal(t *testing.T) uint64 {
	t.Helper()
	status, body := doJSON(t, "GET", tn.ts.URL+"/v1/estimators", "")
	mustStatus(t, http.StatusOK, status, body)
	var resp struct {
		Estimators []EstimatorInfo `json:"estimators"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Estimators) != 1 {
		t.Fatalf("list: %s (%v)", body, err)
	}
	return resp.Estimators[0].Observed
}

// observeOne posts one observation and reports whether it was
// acknowledged; a transport error (a crashed node) is no ack.
func observeOne(base string, o Observation) bool {
	body := fmt.Sprintf(`{"where": %q, "selectivity": %v}`, o.Where, o.Sel)
	resp, err := http.Post(base+"/v1/people/observe", "application/json", strings.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var ack observeResponse
	return resp.StatusCode == http.StatusAccepted && json.NewDecoder(resp.Body).Decode(&ack) == nil && ack.Accepted == 1
}

// TestNodeBootAnswer: until Run publishes a server, a node is live but
// not ready, and says so in the same bytes on every path but /healthz.
func TestNodeBootAnswer(t *testing.T) {
	n := NewNode(nodeConfig(t), FetchConfig{})
	for _, c := range []struct{ method, path, body string }{
		{"GET", "/healthz", "ok\n"},
		{"GET", "/readyz", `{"ready":false,"reason":"starting up"}` + "\n"},
		{"POST", "/v1/people/observe", `{"ready":false,"reason":"starting up"}` + "\n"},
	} {
		rec := httptest.NewRecorder()
		n.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		want := http.StatusServiceUnavailable
		if c.path == "/healthz" {
			want = http.StatusOK
		}
		if rec.Code != want || rec.Body.String() != c.body {
			t.Errorf("%s %s = %d %q, want %d %q", c.method, c.path, rec.Code, rec.Body, want, c.body)
		}
	}
}

// TestNodeFailover crashes a semi-sync primary mid-stream and promotes its
// follower over HTTP: the follower holds every acknowledged observation,
// and once trained it answers bit for bit as a control fed that prefix.
func TestNodeFailover(t *testing.T) {
	obs := walObservations(60, 99)
	pcfg := nodeConfig(t)
	pcfg.WALSync = "always"
	pcfg.ReplicationAck = AckFollower
	primary := startNode(t, pcfg, FetchConfig{}, nil)
	primary.waitReady(t)
	createPeople(t, primary.ts.URL)

	fcfg := nodeConfig(t)
	fcfg.Role = RoleFollower
	fcfg.PrimaryURL = primary.ts.URL
	fcfg.NodeID = "f1"
	follower := startNode(t, fcfg, FetchConfig{PollWait: 100 * time.Millisecond, BackoffMin: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond}, nil)
	follower.waitReady(t)

	// Stream one observation at a time and crash the primary mid-stream;
	// the prefix acknowledged before the crash is the loss bound.
	ackCh := make(chan int, 1)
	crashAt := make(chan struct{})
	go func() {
		acked := 0
		for _, o := range obs {
			if !observeOne(primary.ts.URL, o) {
				break
			}
			if acked++; acked == 30 {
				close(crashAt)
			}
		}
		ackCh <- acked
	}()
	select {
	case <-crashAt:
	case acked := <-ackCh:
		t.Fatalf("stream stopped after %d acknowledged observations", acked)
	}
	primary.crash()
	acked := <-ackCh

	status, body := doJSON(t, "POST", follower.ts.URL+"/v1/replication/promote", "")
	mustStatus(t, http.StatusOK, status, body)
	var pr struct{ Status, Role string }
	if err := json.Unmarshal(body, &pr); err != nil || pr.Status != "promoted" || pr.Role != RolePrimary {
		t.Fatalf("promote: %s (%v)", body, err)
	}
	got := follower.observedTotal(t)
	if got < uint64(acked) || got > uint64(len(obs)) {
		t.Fatalf("promoted follower observed_total = %d, acknowledged = %d of %d", got, acked, len(obs))
	}

	ctrl, cts := newTestServer(t, Config{TrainInterval: time.Hour, Lifecycle: lifecycle.Config{DriftThreshold: -1}})
	t.Cleanup(func() { ctrl.Close() })
	createPeople(t, cts.URL)
	for _, o := range obs[:got] {
		if !observeOne(cts.URL, o) {
			t.Fatal("control refused an observation")
		}
	}
	for _, base := range []string{cts.URL, follower.ts.URL} {
		status, body := doJSON(t, "POST", base+"/v1/people/train", "")
		mustStatus(t, http.StatusOK, status, body)
	}
	for _, p := range walProbes() {
		if want, have := estimate(t, cts.URL, "people", p), estimate(t, follower.ts.URL, "people", p); have != want {
			t.Errorf("estimate(%q) = %v on the promoted follower, control = %v", p, have, want)
		}
	}
	// The promoted node takes writes.
	if rest := obs[got:]; len(rest) > 0 && !observeOne(follower.ts.URL, rest[0]) {
		t.Fatal("promoted follower refused a write")
	}
}

// hits counts the answers a handler gives, by path and status.
type hits struct {
	mu sync.Mutex
	n  map[string]int
}

func (h *hits) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		h.mu.Lock()
		h.n[fmt.Sprintf("%s %d", r.URL.Path, sw.code)]++
		h.mu.Unlock()
	})
}

func (h *hits) count(key string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n[key]
}

// TestNodeRebootstrapAfterGap stops a follower, compacts the primary's log
// past the follower's watermark, and restarts the follower on its old
// directories: it gets a 410, wipes its state, bootstraps from a fresh
// snapshot, catches up and answers bit for bit as the primary.
func TestNodeRebootstrapAfterGap(t *testing.T) {
	obs := walObservations(120, 5)
	pcfg := nodeConfig(t)
	pcfg.WALSegmentSize = 256 // many segments, so compaction has some to take
	pcfg.FollowerRetention = 100 * time.Millisecond
	h := &hits{n: map[string]int{}}
	primary := startNode(t, pcfg, FetchConfig{}, h.wrap)
	primary.waitReady(t)
	createPeople(t, primary.ts.URL)
	stream := func(obs []Observation) {
		t.Helper()
		for _, o := range obs {
			if !observeOne(primary.ts.URL, o) {
				t.Fatal("primary refused an observation")
			}
		}
	}
	train := func() {
		t.Helper()
		status, body := doJSON(t, "POST", primary.ts.URL+"/v1/people/train", "")
		mustStatus(t, http.StatusOK, status, body)
	}
	stream(obs[:20])
	train()

	fcfg := nodeConfig(t)
	fcfg.Role = RoleFollower
	fcfg.PrimaryURL = primary.ts.URL
	fcfg.NodeID = "f1"
	fetch := FetchConfig{PollWait: 50 * time.Millisecond, BackoffMin: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond}
	follower := startNode(t, fcfg, fetch, nil)
	follower.waitReady(t)
	follower.close()
	resume := follower.srv.Load().reg.ReplicationResume()

	// Past the follower's watermark: more records over many segments, a
	// new model, and — once the follower has aged out of retention — a
	// snapshot that compacts the log past it.
	stream(obs[20:100])
	train()
	time.Sleep(2 * pcfg.FollowerRetention)
	status, body := doJSON(t, "POST", primary.ts.URL+"/v1/snapshot", "")
	mustStatus(t, http.StatusOK, status, body)
	if first := primary.srv.Load().reg.wal.FirstSeq(); first <= resume {
		t.Fatalf("primary log starts at %d; compaction did not pass the follower's next seq %d", first, resume)
	}

	// The restarted follower logs at debug level, where the registry
	// reports each snapshot it writes.
	var logs lockedBuffer
	rcfg := fcfg
	rcfg.Logger = slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	restarted := startNode(t, rcfg, fetch, nil)
	restarted.waitReady(t)
	stream(obs[100:])
	want := primary.observedTotal(t)
	deadline := time.Now().Add(5 * time.Second)
	for restarted.observedTotal(t) != want {
		if time.Now().After(deadline) {
			t.Fatalf("follower observed_total = %d, primary = %d", restarted.observedTotal(t), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := h.count("/v1/replication/wal 410"); n == 0 {
		t.Fatal("the restarted follower never got a 410")
	}
	if n := h.count("/v1/replication/snapshot 200"); n != 2 {
		t.Fatalf("snapshot bootstraps served = %d, want 2 (first start and re-bootstrap)", n)
	}
	if first := restarted.srv.Load().reg.wal.FirstSeq(); first <= resume {
		t.Fatalf("follower log starts at %d, not past its wiped state (next seq %d)", first, resume)
	}
	// Between the gap and the wipe the follower closes without a final
	// snapshot: the wipe would delete it unread.
	log := logs.String()
	gap := strings.Index(log, "re-bootstrapping from snapshot")
	boot := strings.Index(log[max(gap, 0):], "bootstrapped from primary snapshot")
	if gap < 0 || boot < 0 {
		t.Fatalf("the restarted follower logged no gap and re-bootstrap:\n%s", log)
	}
	if between := log[gap : gap+boot]; strings.Contains(between, `msg="snapshot saved"`) {
		t.Errorf("the follower wrote a snapshot between the gap and the wipe:\n%s", between)
	}
	for _, p := range walProbes() {
		if want, have := estimate(t, primary.ts.URL, "people", p), estimate(t, restarted.ts.URL, "people", p); have != want {
			t.Errorf("estimate(%q) = %v on the re-bootstrapped follower, primary = %v", p, have, want)
		}
	}
}

// lockedBuffer is a bytes.Buffer that a logger on several goroutines can
// write to while a test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
