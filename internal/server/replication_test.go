package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"quicksel/internal/replica"
	"quicksel/internal/wal"
)

// newPrimary builds a WAL-backed primary registry with background training
// parked (explicit Train only), so tests control the model boundaries.
func newPrimary(t *testing.T, extra func(*Config)) *Registry {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{
		SnapshotPath:  filepath.Join(dir, "state.json"),
		WALDir:        filepath.Join(dir, "wal"),
		WALSync:       "always",
		TrainInterval: time.Hour,
	}
	if extra != nil {
		extra(&cfg)
	}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.closeAbrupt() })
	return reg
}

// newFollowerReg builds a follower registry in its own directories.
func newFollowerReg(t *testing.T, extra func(*Config)) *Registry {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{
		SnapshotPath:  filepath.Join(dir, "state.json"),
		WALDir:        filepath.Join(dir, "wal"),
		WALSync:       "always",
		TrainInterval: time.Hour,
		Role:          RoleFollower,
		PrimaryURL:    "http://primary.example:7075",
	}
	if extra != nil {
		extra(&cfg)
	}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.closeAbrupt() })
	return reg
}

// shipAll collects the primary's durable log and decodes it into records,
// exactly as the follower fetch loop would.
func shipAll(t *testing.T, primary *Registry, from uint64) []wal.Record {
	t.Helper()
	frames, _, _, err := primary.wal.CollectFrames(from, primary.wal.DurableSeq(), 1<<30)
	if err != nil {
		t.Fatalf("CollectFrames: %v", err)
	}
	var recs []wal.Record
	for len(frames) > 0 {
		rec, n, err := wal.DecodeFrame(frames)
		if err != nil {
			t.Fatalf("DecodeFrame: %v", err)
		}
		recs = append(recs, rec)
		frames = frames[n:]
	}
	return recs
}

// TestReplicateBitIdentical ships a primary's whole log to a follower and
// verifies the follower — once promoted and trained at the same boundary —
// serves bit-identical estimates.
func TestReplicateBitIdentical(t *testing.T) {
	primary := newPrimary(t, nil)
	if err := primary.Create("people", walSchema(t)); err != nil {
		t.Fatal(err)
	}
	for _, o := range walObservations(60, 7) {
		if _, _, err := primary.Observe("people", o.Where, o.Sel); err != nil {
			t.Fatal(err)
		}
	}

	follower := newFollowerReg(t, nil)
	recs := shipAll(t, primary, 1)
	if len(recs) != 61 { // 1 create + 60 observes
		t.Fatalf("shipped %d records, want 61", len(recs))
	}
	if err := follower.Replicate(recs); err != nil {
		t.Fatalf("Replicate: %v", err)
	}
	if got := len(follower.List()); got != 1 {
		t.Fatalf("follower estimators = %d, want 1", got)
	}

	// The replicated observations sit untrained in the follower's buffer, as
	// they do in the primary's. Train both at the same boundary and compare.
	if promoted, err := follower.Promote(); err != nil || !promoted {
		t.Fatalf("Promote = %v, %v", promoted, err)
	}
	if err := primary.Train("people"); err != nil {
		t.Fatal(err)
	}
	if err := follower.Train("people"); err != nil {
		t.Fatal(err)
	}
	for _, probe := range walProbes() {
		want, err := primary.Estimate("people", probe)
		if err != nil {
			t.Fatal(err)
		}
		got, err := follower.Estimate("people", probe)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("estimate(%q): follower %v != primary %v", probe, got, want)
		}
	}
}

// TestFollowerWorkerSnapshotsWithoutTraining: a follower's background
// worker writes its periodic snapshots but leaves replicated observations
// untrained on every train tick, and /readyz reports no trainer; the first
// tick after Promote trains them.
func TestFollowerWorkerSnapshotsWithoutTraining(t *testing.T) {
	primary := newPrimary(t, nil)
	if err := primary.Create("people", walSchema(t)); err != nil {
		t.Fatal(err)
	}
	for _, o := range walObservations(20, 5) {
		if _, _, err := primary.Observe("people", o.Where, o.Sel); err != nil {
			t.Fatal(err)
		}
	}
	follower := newFollowerReg(t, func(c *Config) {
		c.TrainInterval = 2 * time.Millisecond
		c.SnapshotInterval = 10 * time.Millisecond
	})
	if err := follower.Replicate(shipAll(t, primary, 1)); err != nil {
		t.Fatal(err)
	}
	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, follower.List())
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Three snapshot ticks span well over ten train ticks.
	waitUntil("three periodic snapshots", func() bool { return follower.snapshotsSaved.Load() >= 3 })
	if info := follower.List()[0]; info.Backlog != 20 || info.TrainRuns != 0 {
		t.Fatalf("follower trained on a tick: backlog %d, train runs %d", info.Backlog, info.TrainRuns)
	}
	if follower.Readiness().TrainerRunning {
		t.Fatal("follower reports trainer_running")
	}

	if promoted, err := follower.Promote(); err != nil || !promoted {
		t.Fatalf("Promote = %v, %v", promoted, err)
	}
	waitUntil("the backlog to train", func() bool {
		info := follower.List()[0]
		return info.Backlog == 0 && info.TrainRuns > 0
	})
	if !follower.Readiness().TrainerRunning {
		t.Fatal("promoted registry reports no trainer")
	}
}

func TestReplicateOverlapAndGap(t *testing.T) {
	primary := newPrimary(t, nil)
	if err := primary.Create("people", walSchema(t)); err != nil {
		t.Fatal(err)
	}
	for _, o := range walObservations(10, 3) {
		if _, _, err := primary.Observe("people", o.Where, o.Sel); err != nil {
			t.Fatal(err)
		}
	}
	follower := newFollowerReg(t, nil)
	recs := shipAll(t, primary, 1)
	if err := follower.Replicate(recs); err != nil {
		t.Fatal(err)
	}
	applied := follower.replApplied.Load()

	// A full refetch overlap is idempotent: nothing re-applies.
	if err := follower.Replicate(recs); err != nil {
		t.Fatalf("Replicate(overlap): %v", err)
	}
	if got := follower.replApplied.Load(); got != applied {
		t.Fatalf("overlap re-applied records: %d -> %d", applied, got)
	}

	// A run that would leave a hole is refused before any append.
	gap := []wal.Record{{Type: walRecObserve, Seq: follower.wal.LastSeq() + 2, Payload: recs[1].Payload}}
	if err := follower.Replicate(gap); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("Replicate(gap) = %v, want gap error", err)
	}
	// A non-dense run is refused too.
	sparse := []wal.Record{
		{Type: walRecObserve, Seq: follower.wal.LastSeq() + 1, Payload: recs[1].Payload},
		{Type: walRecObserve, Seq: follower.wal.LastSeq() + 3, Payload: recs[2].Payload},
	}
	if err := follower.Replicate(sparse); err == nil || !strings.Contains(err.Error(), "dense") {
		t.Fatalf("Replicate(sparse) = %v, want density error", err)
	}
	// And a primary never accepts replicated records.
	if _, err := primary.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Replicate(recs); err == nil {
		t.Fatal("Replicate on a primary succeeded")
	}
}

func TestFollowerHTTPReadOnly(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{
		SnapshotPath: filepath.Join(dir, "state.json"),
		WALDir:       filepath.Join(dir, "wal"),
		Role:         RoleFollower,
		PrimaryURL:   "http://primary.example:7075",
	})

	// Writes are rejected with 503 and redirected via headers.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/estimators",
		strings.NewReader(`{"name": "x", "schema": `+peopleSchema+`}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower POST status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get(replica.HeaderPrimary); got != "http://primary.example:7075" {
		t.Fatalf("%s = %q", replica.HeaderPrimary, got)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("missing Retry-After on follower write rejection")
	}

	// Reads still serve.
	status, body := doJSON(t, "GET", ts.URL+"/v1/estimators", "")
	mustStatus(t, http.StatusOK, status, body)

	// An unready follower (no fetch loop attached) fails its probe.
	status, body = doJSON(t, "GET", ts.URL+"/readyz", "")
	mustStatus(t, http.StatusServiceUnavailable, status, body)
	var rd Readiness
	if err := json.Unmarshal(body, &rd); err != nil {
		t.Fatal(err)
	}
	if rd.Role != RoleFollower || rd.ReplicationCaughtUp == nil || *rd.ReplicationCaughtUp {
		t.Fatalf("readiness = %+v", rd)
	}
}

func TestPromoteFlipsRoleAndReadiness(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{
		SnapshotPath:  filepath.Join(dir, "state.json"),
		WALDir:        filepath.Join(dir, "wal"),
		TrainInterval: 50 * time.Millisecond,
		Role:          RoleFollower,
	})
	reg := srv.Registry()
	if reg.IsPrimary() {
		t.Fatal("follower reports primary before promotion")
	}

	status, body := doJSON(t, "POST", ts.URL+"/v1/replication/promote", "")
	mustStatus(t, http.StatusOK, status, body)
	var pr struct {
		Status string `json:"status"`
		Role   string `json:"role"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Status != "promoted" || pr.Role != RolePrimary {
		t.Fatalf("promote response = %+v", pr)
	}
	if !reg.IsPrimary() {
		t.Fatal("registry still follower after promote")
	}

	// Promotion is idempotent.
	status, body = doJSON(t, "POST", ts.URL+"/v1/replication/promote", "")
	mustStatus(t, http.StatusOK, status, body)
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Status != "already_primary" {
		t.Fatalf("second promote status = %q", pr.Status)
	}

	// The trainer comes up and readiness goes green without any fetch loop.
	deadline := time.Now().Add(5 * time.Second)
	for !reg.Readiness().Ready {
		if time.Now().After(deadline) {
			t.Fatalf("readiness after promote = %+v", reg.Readiness())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Writes now land.
	createPeople(t, ts.URL)
}

func TestSemiSyncAck(t *testing.T) {
	reg := newPrimary(t, func(c *Config) {
		c.ReplicationAck = AckFollower
		c.ReplicationAckTimeout = 250 * time.Millisecond
	})
	if err := reg.Create("people", walSchema(t)); err != nil {
		t.Fatal(err)
	}

	// No follower has ever attached: writes degrade to local acks at once.
	start := time.Now()
	if _, _, err := reg.Observe("people", "age >= 30", 0.5); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("lone-primary observe took %v, want immediate", d)
	}
	if got := reg.ackWaits.Load(); got != 0 {
		t.Fatalf("ackWaits with no follower = %d, want 0", got)
	}

	// A follower attaches behind the tail: the next write waits for its
	// watermark and is released the moment the ack covers it.
	reg.UpdateFollowerAck("f1", reg.wal.LastSeq())
	obsDone := make(chan error, 1)
	go func() {
		_, _, err := reg.Observe("people", "age >= 40", 0.4)
		obsDone <- err
	}()
	// Wait for the writer to park, then ack everything.
	deadline := time.Now().Add(2 * time.Second)
	for reg.ackWaits.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("write never parked on the semi-sync waiter")
		}
		time.Sleep(time.Millisecond)
	}
	reg.UpdateFollowerAck("f1", reg.wal.LastSeq())
	if err := <-obsDone; err != nil {
		t.Fatal(err)
	}
	if got := reg.ackTimeouts.Load(); got != 0 {
		t.Fatalf("acked write counted a timeout: %d", got)
	}

	// A write no follower acks degrades after the timeout, counted.
	start = time.Now()
	if _, _, err := reg.Observe("people", "age >= 50", 0.3); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Fatalf("unacked observe returned in %v, want ~250ms timeout", d)
	}
	if got := reg.ackTimeouts.Load(); got != 1 {
		t.Fatalf("ackTimeouts = %d, want 1", got)
	}
}

func TestCompactionFloorHoldsSegmentsForFollower(t *testing.T) {
	reg := newPrimary(t, func(c *Config) {
		c.WALSegmentSize = 256 // rotate aggressively so compaction has segments to take
	})
	if err := reg.Create("people", walSchema(t)); err != nil {
		t.Fatal(err)
	}
	for _, o := range walObservations(80, 11) {
		if _, _, err := reg.Observe("people", o.Where, o.Sel); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Train("people"); err != nil {
		t.Fatal(err)
	}

	// A live follower acked through seq 5: the snapshot may cover everything,
	// but compaction must not advance past the follower's suffix.
	reg.UpdateFollowerAck("slow", 5)
	if err := reg.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if first := reg.wal.FirstSeq(); first > 6 {
		t.Fatalf("FirstSeq after snapshot = %d; compaction ran past the follower watermark 5", first)
	}
	if _, _, _, err := reg.wal.CollectFrames(6, reg.wal.DurableSeq(), 1<<20); err != nil {
		t.Fatalf("follower suffix unavailable after snapshot: %v", err)
	}

	// Once the follower catches up, the floor lifts and the next snapshot
	// compacts the prefix away.
	reg.UpdateFollowerAck("slow", reg.wal.LastSeq())
	if err := reg.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if first := reg.wal.FirstSeq(); first <= 6 {
		t.Fatalf("FirstSeq after caught-up snapshot = %d, want compaction past 6", first)
	}
	if _, _, _, err := reg.wal.CollectFrames(1, reg.wal.DurableSeq(), 1<<20); err != wal.ErrCompacted {
		t.Fatalf("CollectFrames(1) after compaction = %v, want ErrCompacted", err)
	}
}

func TestReplicationEndpoints(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{
		SnapshotPath:   filepath.Join(dir, "state.json"),
		WALDir:         filepath.Join(dir, "wal"),
		WALSync:        "always",
		WALSegmentSize: 256, // rotate aggressively so the 410 branch below is reachable
		TrainInterval:  time.Hour,
	})
	reg := srv.Registry()
	createPeople(t, ts.URL)
	for _, o := range walObservations(5, 1) {
		if _, _, err := reg.Observe("people", o.Where, o.Sel); err != nil {
			t.Fatal(err)
		}
	}
	tail := reg.wal.DurableSeq()

	// A plain fetch returns the dense frame run with range headers.
	resp, err := http.Get(ts.URL + "/v1/replication/wal?from=1&follower=t1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wal fetch status = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(replica.HeaderFirst); got != "1" {
		t.Fatalf("%s = %q, want 1", replica.HeaderFirst, got)
	}
	if got := resp.Header.Get(replica.HeaderLast); got != fmt.Sprint(tail) {
		t.Fatalf("%s = %q, want %d", replica.HeaderLast, got, tail)
	}
	var n int
	for data := body; len(data) > 0; n++ {
		rec, k, err := wal.DecodeFrame(data)
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		if rec.Seq != uint64(n+1) {
			t.Fatalf("frame %d seq = %d", n, rec.Seq)
		}
		data = data[k:]
	}
	if uint64(n) != tail {
		t.Fatalf("fetched %d records, want %d", n, tail)
	}
	// The fetch registered the follower and its ack (from-1 = 0).
	if fs := reg.Followers(); len(fs) != 1 || fs[0].ID != "t1" || !fs[0].Live {
		t.Fatalf("Followers after fetch = %+v", fs)
	}

	// from=0 is invalid.
	resp, err = http.Get(ts.URL + "/v1/replication/wal?from=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("from=0 status = %d, want 400", resp.StatusCode)
	}

	// Long poll: a fetch past the tail parks until a write lands.
	got := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/v1/replication/wal?from=%d&wait=5s", ts.URL, tail+1))
		if err != nil {
			got <- nil
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		got <- b
	}()
	time.Sleep(100 * time.Millisecond) // let the poller park
	if _, _, err := reg.Observe("people", "age >= 33", 0.42); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-got:
		rec, _, err := wal.DecodeFrame(b)
		if err != nil || rec.Seq != tail+1 {
			t.Fatalf("long-poll frame = %+v, %v; want seq %d", rec, err, tail+1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll never returned after a write")
	}

	// Snapshot bootstrap: 200 with the covered watermark header.
	resp, err = http.Get(ts.URL + "/v1/replication/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snapBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(snapBody) == 0 {
		t.Fatalf("snapshot status = %d, %d bytes", resp.StatusCode, len(snapBody))
	}
	if resp.Header.Get(replica.HeaderCovered) == "" {
		t.Fatalf("missing %s header", replica.HeaderCovered)
	}

	// Status reports the role and the follower table.
	status, body := doJSON(t, "GET", ts.URL+"/v1/replication/status", "")
	mustStatus(t, http.StatusOK, status, body)
	var st struct {
		Role      string         `json:"role"`
		Followers []FollowerInfo `json:"followers"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != RolePrimary || len(st.Followers) != 1 {
		t.Fatalf("replication status = %s", body)
	}

	// After compaction outruns a naive reader, the fetch is 410 Gone — the
	// re-bootstrap signal — never a silent gap. (The follower's own ack has
	// to advance first or the floor would hold the segments.)
	reg.UpdateFollowerAck("t1", reg.wal.LastSeq())
	if err := reg.Train("people"); err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if reg.wal.FirstSeq() <= 1 {
		t.Fatalf("compaction kept the prefix: FirstSeq = %d", reg.wal.FirstSeq())
	}
	resp, err = http.Get(ts.URL + "/v1/replication/wal?from=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("compacted fetch status = %d, want 410", resp.StatusCode)
	}
}

// A fetch's max_bytes caps its response up to MaxReplicationBatchBytes,
// above the default as well as below it: a fetch stops before the frame
// that would pass the cap, so 512 KiB records ship 7 to 4 MiB, not 8.
func TestReplicationWALHonoursMaxBytes(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{WALDir: filepath.Join(dir, "wal"), TrainInterval: time.Hour})
	defer srv.Close()
	// 12 MiB of audit records (a type replay ignores), 512 KiB each.
	recs := make([]wal.Record, 24)
	for i := range recs {
		recs[i] = wal.Record{Type: 9, Payload: make([]byte, 512<<10)}
	}
	if _, err := srv.Registry().wal.Append(recs...); err != nil {
		t.Fatal(err)
	}
	for query, want := range map[string]string{
		"":                   "7", // DefaultReplicationBatchBytes
		"&max_bytes=1048576": "1",
		"&max_bytes=8388608": "15",
	} {
		resp, err := http.Get(ts.URL + "/v1/replication/wal?from=1" + query)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fetch%s: status %d", query, resp.StatusCode)
		}
		if got := resp.Header.Get(replica.HeaderLast); got != want {
			t.Errorf("fetch%s ends at record %s, want %s", query, got, want)
		}
	}
}

func TestSnapshotEndpointWithoutPersistence(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{
		WALDir:        filepath.Join(dir, "wal"),
		TrainInterval: time.Hour,
	})
	resp, err := http.Get(ts.URL + "/v1/replication/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("snapshot without persistence = %d, want 204", resp.StatusCode)
	}
}

func TestRequestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{TrainInterval: time.Hour})
	createPeople(t, ts.URL)

	// A body past MaxRequestBytes is cut off and answered with 413.
	huge := `{"observations": [` + strings.Repeat(`{"where": "age >= 30", "selectivity": 0.5},`, 1<<18)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/people/observe", bytes.NewReader([]byte(huge)))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized observe status = %d (%s), want 413", resp.StatusCode, body)
	}
}
