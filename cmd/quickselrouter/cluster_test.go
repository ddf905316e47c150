package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"quicksel/internal/cluster"
	"quicksel/internal/lifecycle"
	"quicksel/internal/obs"
	"quicksel/internal/server"
)

// startNode serves a quickseld node for cfg on httptest, advertising the
// listener's address, and runs it until the test ends. crash closes the
// listener and every connection without closing the node: nothing is
// flushed, trained or persisted.
func startNode(t *testing.T, cfg server.Config) (p *proc, crash func()) {
	t.Helper()
	dir := t.TempDir()
	cfg.SnapshotPath = filepath.Join(dir, "snap.json")
	cfg.WALDir = filepath.Join(dir, "wal")
	cfg.TrainInterval = time.Hour
	cfg.Lifecycle = lifecycle.Config{DriftThreshold: -1}
	cfg.Seed = 7
	cfg.Logger = obs.Discard()
	ts := httptest.NewUnstartedServer(nil)
	cfg.AdvertiseURL = "http://" + ts.Listener.Addr().String()
	node := server.NewNode(cfg, server.FetchConfig{
		PollWait:   100 * time.Millisecond,
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
	})
	ts.Config.Handler = node
	ts.Start()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- node.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("node %s: Run: %v", ts.URL, err)
		}
		if err := node.Close(); err != nil {
			t.Errorf("node %s: Close: %v", ts.URL, err)
		}
		ts.Close()
	})
	p = &proc{t: t, base: ts.URL}
	p.waitReady(5 * time.Second)
	return p, func() {
		ts.Listener.Close()
		ts.CloseClientConnections()
	}
}

// TestClusterFailoverInProcess is TestClusterFailoverE2E without binaries:
// two shards of semi-sync primary/follower nodes behind newRouter, all on
// httptest. One primary crashes mid-stream, its follower is promoted over
// HTTP, the router re-aims, and no acknowledged observation is lost: every
// estimate through the router is bit-identical to one unsharded control.
func TestClusterFailoverInProcess(t *testing.T) {
	type shard struct {
		primary, follower *proc
		crash             func()
	}
	startShard := func(id string) shard {
		primary, crash := startNode(t, server.Config{
			WALSync:        "always",
			ReplicationAck: server.AckFollower,
			NodeID:         id + "/p",
		})
		follower, _ := startNode(t, server.Config{
			WALSync:    "always",
			Role:       server.RoleFollower,
			PrimaryURL: primary.base,
			NodeID:     id + "/f",
		})
		return shard{primary, follower, crash}
	}
	s0, s1 := startShard("s0"), startShard("s1")

	m, err := cluster.BuildMap([]cluster.Shard{
		{ID: "s0", Nodes: []cluster.Node{{URL: s0.primary.base}, {URL: s0.follower.base}}},
		{ID: "s1", Nodes: []cluster.Node{{URL: s1.primary.base}, {URL: s1.follower.base}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := cluster.NewTracker(m, cluster.TrackerConfig{Interval: 20 * time.Millisecond, Logger: obs.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	tracker.Start()
	t.Cleanup(tracker.Stop)
	rts := httptest.NewServer(newRouter(tracker, routerConfig{
		client: &http.Client{Timeout: 5 * time.Second},
		log:    obs.Discard(),
	}))
	t.Cleanup(rts.Close)
	router := &proc{t: t, base: rts.URL}
	router.waitReady(5 * time.Second)

	estA, estB := "", ""
	for i := 0; estA == "" || estB == ""; i++ {
		name := fmt.Sprintf("tbl%02d", i)
		switch {
		case tracker.Ring().Owner(name) == "s0" && estA == "":
			estA = name
		case tracker.Ring().Owner(name) == "s1" && estB == "":
			estB = name
		}
	}
	router.createEstimator(estA)
	router.createEstimator(estB)
	obsA := clusterObservations(120, 99)
	obsB := clusterObservations(60, 17)
	probes := []string{
		"age >= 30",
		"age BETWEEN 25 AND 55 AND salary >= 100000",
		"salary < 60000",
		"age >= 70 OR salary >= 250000",
	}
	router.stream(estA, obsA[:20], 5)
	router.stream(estB, obsB[:20], 5)

	// Stream the rest of estA one observation at a time and crash the s0
	// primary once 40 more are acknowledged; only acknowledged
	// observations count toward the loss bound.
	client := &http.Client{Timeout: 5 * time.Second}
	ackCh := make(chan int, 1)
	crashAt := make(chan struct{})
	go func() {
		acked := 20
		for _, o := range obsA[20:] {
			if !router.observeOneLoose(client, estA, o) {
				break
			}
			if acked++; acked == 60 {
				close(crashAt)
			}
		}
		ackCh <- acked
	}()
	select {
	case <-crashAt:
	case acked := <-ackCh:
		t.Fatalf("stream stopped after %d acknowledged estA observations", acked)
	}
	s0.crash()
	ackedA := <-ackCh

	// Shard isolation: s1 keeps taking strictly acked writes.
	router.stream(estB, obsB[20:], 5)

	// Failover: promote s0's follower and wait for the router to re-aim.
	if status, body := s0.follower.post("/v1/replication/promote", map[string]any{}); status != http.StatusOK {
		t.Fatalf("promote: status %d: %s", status, body)
	}
	s0.follower.waitReady(5 * time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, body := router.get("/v1/cluster/status")
		var st struct {
			Ready  bool `json:"ready"`
			Shards []struct {
				ID          string `json:"id"`
				PrimaryURL  string `json:"primary_url"`
				PrimaryLive bool   `json:"primary_live"`
			} `json:"shards"`
		}
		if status != http.StatusOK || json.Unmarshal(body, &st) != nil {
			t.Fatalf("cluster status: %d: %s", status, body)
		}
		reaimed := false
		for _, sh := range st.Shards {
			reaimed = reaimed || sh.ID == "s0" && sh.PrimaryLive && sh.PrimaryURL == s0.follower.base
		}
		if reaimed && st.Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never re-aimed s0 at the promoted follower: %s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	gotA := s0.follower.observedTotal(estA)
	if gotA < uint64(ackedA) || gotA > uint64(len(obsA)) {
		t.Fatalf("promoted follower holds %d estA observations; %d acknowledged of %d", gotA, ackedA, len(obsA))
	}
	router.stream(estA, obsA[gotA:], 5)

	control, _ := startNode(t, server.Config{})
	control.createEstimator(estA)
	control.createEstimator(estB)
	control.stream(estA, obsA, 5)
	control.stream(estB, obsB, 5)
	for _, name := range []string{estA, estB} {
		router.train(name)
		control.train(name)
		for _, p := range probes {
			if want, have := control.estimate(name, p), router.estimate(name, p); have != want {
				t.Errorf("estimate(%s, %q) = %v through the router, control = %v", name, p, have, want)
			}
		}
	}
}
