package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// The fault-injection failover test of the replication acceptance
// criterion: a primary with semi-synchronous acks is killed with SIGKILL
// mid-stream under live observe traffic, the follower is promoted, and the
// promoted follower must hold every acknowledged observation — with
// post-train estimates bit-identical to an uncrashed control daemon fed
// exactly the stream prefix the follower holds.

// observeOne posts a single observation and reports whether it was fully
// acknowledged. Unlike daemon.stream it tolerates transport errors: the
// primary is killed mid-stream, so the in-flight request is expected to
// die. Only fully-acknowledged observations count toward the loss bound.
func observeOne(d *daemon, client *http.Client, o map[string]any) bool {
	data, err := json.Marshal(map[string]any{"observations": []map[string]any{o}})
	if err != nil {
		return false
	}
	resp, err := client.Post(d.base+"/v1/people/observe", "application/json", bytes.NewReader(data))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return false
	}
	var ack struct {
		Accepted int `json:"accepted"`
	}
	return json.Unmarshal(body, &ack) == nil && ack.Accepted == 1
}

func TestFailoverKill9E2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	obs := e2eObservations(120, 99)
	probes := []string{
		"age >= 30",
		"age BETWEEN 25 AND 55 AND salary >= 100000",
		"salary < 60000",
		"age >= 70 OR salary >= 250000",
	}

	// Primary with semi-sync acks: an acknowledged write is durable locally
	// AND covered by a follower's fetch watermark, so killing the primary
	// cannot lose it.
	primaryAddr := freeAddr(t)
	primary := startDaemon(t, bin, primaryAddr, t.TempDir(),
		"-wal-fsync", "always", "-repl-ack", "follower")
	defer primary.stop()
	primary.createEstimator()

	// Follower: snapshot-bootstraps from the primary, then tails its WAL.
	// startDaemon waits on /readyz, which for a follower demands the fetch
	// loop healthy and caught up — the replication-gated readiness.
	follower := startDaemon(t, bin, freeAddr(t), t.TempDir(),
		"-role", "follower", "-primary-url", "http://"+primaryAddr, "-node-id", "f1")
	defer follower.stop()

	// Pre-failover invariants: the follower is read-only and redirects
	// writers to the primary; its lag is on /metrics.
	status, body := follower.post("/v1/people/observe", map[string]any{
		"observations": []map[string]any{obs[0]},
	})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("follower accepted a write: status %d: %s", status, body)
	}
	if status, body = follower.get("/metrics"); status != http.StatusOK ||
		!bytes.Contains(body, []byte("quickseld_replication_lag")) ||
		!bytes.Contains(body, []byte("quickseld_primary 0")) {
		t.Fatalf("follower metrics missing replication gauges:\n%.2000s", body)
	}

	// Stream observations one at a time and SIGKILL the primary mid-stream.
	// The streamer keeps going until the kill severs its connection; the
	// prefix acknowledged before the kill is the loss bound.
	client := &http.Client{Timeout: 10 * time.Second}
	ackCh := make(chan int, 1)
	killAt := make(chan struct{})
	go func() {
		acked := 0
		for _, o := range obs {
			if !observeOne(primary, client, o) {
				break
			}
			acked++
			if acked == 40 {
				close(killAt) // signal: enough acked traffic, kill now
			}
		}
		ackCh <- acked
	}()
	select {
	case <-killAt:
	case <-time.After(30 * time.Second):
		t.Fatal("stream never reached 40 acknowledged observations")
	}
	primary.kill9()
	acked := <-ackCh
	if acked < 40 {
		t.Fatalf("acknowledged %d observations, want >= 40", acked)
	}

	// Failover: promote the follower. The daemon stops the fetch loop, the
	// registry flips to primary, and the training worker starts.
	status, body = follower.post("/v1/replication/promote", map[string]any{})
	if status != http.StatusOK {
		t.Fatalf("promote: status %d: %s", status, body)
	}
	var pr struct {
		Status string `json:"status"`
		Role   string `json:"role"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Status != "promoted" || pr.Role != "primary" {
		t.Fatalf("promote response: %s", body)
	}

	// The promoted node's readiness flips to the primary rules (trainer up).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if status, _ := follower.get("/readyz"); status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			status, body := follower.get("/readyz")
			t.Fatalf("promoted follower never became ready: %d %s", status, body)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if status, body = follower.get("/metrics"); status != http.StatusOK ||
		!bytes.Contains(body, []byte("quickseld_primary 1")) {
		t.Fatalf("promoted follower still reports quickseld_primary 0")
	}

	// Zero acknowledged loss: the promoted follower holds at least every
	// observation the dead primary acknowledged.
	got := follower.observedTotal()
	if got < uint64(acked) {
		t.Fatalf("promoted follower observed_total = %d, acknowledged before kill = %d (acked observation lost)", got, acked)
	}
	if got > uint64(len(obs)) {
		t.Fatalf("promoted follower observed_total = %d > %d streamed", got, len(obs))
	}

	// Bit-identity: the observes were streamed strictly in order, so the
	// follower's state is exactly the first observedTotal observations.
	// Feed an uncrashed control daemon that same prefix, train both once,
	// and every estimate must match bit for bit.
	control := startDaemon(t, bin, freeAddr(t), t.TempDir())
	defer control.stop()
	control.createEstimator()
	control.stream(obs[:got], 5)
	control.train()
	follower.train()
	for _, p := range probes {
		want := control.estimate(p)
		if have := follower.estimate(p); have != want {
			t.Errorf("estimate(%q) = %v on the promoted follower, uncrashed control = %v (must be bit-identical)", p, have, want)
		}
	}

	// The promoted node serves writes now: the rest of the stream lands on
	// it without error.
	if rest := obs[got:]; len(rest) > 0 {
		follower.stream(rest, 5)
	}
}

// TestFollowerReplicationStatusE2E checks the operator surface of a live
// follower: GET /v1/replication/status reports the tailing state, and the
// primary's status lists the follower's watermark.
func TestFollowerReplicationStatusE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	primaryAddr := freeAddr(t)
	primary := startDaemon(t, bin, primaryAddr, t.TempDir(), "-wal-fsync", "always")
	defer primary.stop()
	primary.createEstimator()

	follower := startDaemon(t, bin, freeAddr(t), t.TempDir(),
		"-role", "follower", "-primary-url", "http://"+primaryAddr, "-node-id", "status-probe")
	defer follower.stop()

	// Stream after the follower attached so the records travel over the
	// WAL fetch path (not inside the bootstrap snapshot), then wait for the
	// follower to report them applied and itself caught up.
	primary.stream(e2eObservations(20, 5), 5)
	var fs struct {
		Role        string `json:"role"`
		PrimaryURL  string `json:"primary_url"`
		Applied     uint64 `json:"applied"`
		Replication struct {
			CaughtUp bool `json:"caught_up"`
			Healthy  bool `json:"healthy"`
		} `json:"replication"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, body := follower.get("/v1/replication/status")
		if status != http.StatusOK {
			t.Fatalf("follower status: %d: %s", status, body)
		}
		if err := json.Unmarshal(body, &fs); err != nil {
			t.Fatal(err)
		}
		if fs.Applied >= 20 && fs.Replication.CaughtUp {
			if fs.Role != "follower" || !strings.Contains(fs.PrimaryURL, primaryAddr) || !fs.Replication.Healthy {
				t.Fatalf("follower replication status: %s", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never applied the stream: %s", body)
		}
		time.Sleep(25 * time.Millisecond)
	}

	status, body := primary.get("/v1/replication/status")
	if status != http.StatusOK {
		t.Fatalf("primary status: %d: %s", status, body)
	}
	var ps struct {
		Role      string `json:"role"`
		Followers []struct {
			ID   string `json:"id"`
			Live bool   `json:"live"`
		} `json:"followers"`
	}
	if err := json.Unmarshal(body, &ps); err != nil {
		t.Fatal(err)
	}
	if ps.Role != "primary" || len(ps.Followers) != 1 ||
		ps.Followers[0].ID != "status-probe" || !ps.Followers[0].Live {
		t.Fatalf("primary follower table: %s", body)
	}
}
