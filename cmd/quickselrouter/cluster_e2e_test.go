package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"quicksel/internal/cluster"
)

// The cluster acceptance test: two shards, each a semi-sync
// primary+follower pair, behind one quickselrouter — all real processes.
// Mixed traffic flows through the router, one primary is killed with
// SIGKILL mid-stream, its follower is promoted, the router re-aims off the
// health probes, and at the end (a) no acknowledged observation is lost
// and (b) every estimate through the router is bit-identical to one
// unsharded control daemon fed the same streams.

const clusterSchema = `{"columns": [
	{"name": "age",    "kind": "integer", "min": 18, "max": 90},
	{"name": "salary", "kind": "real",    "min": 0,  "max": 300000}
]}`

func clusterObservations(n int, seed int64) []map[string]any {
	rng := rand.New(rand.NewSource(seed))
	out := make([]map[string]any, n)
	for i := range out {
		age := 18 + rng.Intn(60)
		salary := 50000 + rng.Float64()*200000
		fracAge := float64(90-age+1) / (90 - 18 + 1)
		out[i] = map[string]any{
			"where":       fmt.Sprintf("age >= %d AND salary < %.0f", age, salary),
			"selectivity": fracAge * salary / 300000,
		}
	}
	return out
}

func buildBinary(t *testing.T, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func clusterFreeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// proc is one live daemon or router process under test.
type proc struct {
	t    *testing.T
	cmd  *exec.Cmd
	base string
	out  bytes.Buffer
}

func startProc(t *testing.T, bin, addr string, args ...string) *proc {
	t.Helper()
	p := &proc{t: t, base: "http://" + addr}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = &p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.stop)
	return p
}

func (p *proc) waitReady(within time.Duration) {
	p.t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	p.t.Fatalf("process on %s never became ready; output:\n%s", p.base, p.out.String())
}

func (p *proc) kill9() {
	p.t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		p.t.Fatal(err)
	}
	_ = p.cmd.Wait()
}

func (p *proc) stop() {
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}

func (p *proc) post(path string, body any) (int, []byte) {
	p.t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		p.t.Fatal(err)
	}
	resp, err := http.Post(p.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		p.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func (p *proc) get(path string) (int, []byte) {
	p.t.Helper()
	resp, err := http.Get(p.base + path)
	if err != nil {
		p.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func (p *proc) createEstimator(name string) {
	p.t.Helper()
	var schema json.RawMessage = []byte(clusterSchema)
	status, body := p.post("/v1/estimators", map[string]any{"name": name, "schema": schema})
	if status != http.StatusCreated {
		p.t.Fatalf("create %s: status %d: %s", name, status, body)
	}
}

// stream sends observations in strictly-acked batches; any non-ack fails
// the test, so use it only against a healthy path.
func (p *proc) stream(name string, obs []map[string]any, batch int) {
	p.t.Helper()
	for i := 0; i < len(obs); i += batch {
		end := min(i+batch, len(obs))
		status, body := p.post("/v1/"+name+"/observe", map[string]any{"observations": obs[i:end]})
		if status != http.StatusAccepted {
			p.t.Fatalf("observe %s batch %d..%d: status %d: %s", name, i, end, status, body)
		}
		var resp struct {
			Accepted int `json:"accepted"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			p.t.Fatal(err)
		}
		if resp.Accepted != end-i {
			p.t.Fatalf("observe %s batch %d..%d: accepted %d", name, i, end, resp.Accepted)
		}
	}
}

// observeOneLoose posts one observation and reports whether it was fully
// acknowledged; transport errors and non-202s return false instead of
// failing, because the test kills a primary mid-stream.
func (p *proc) observeOneLoose(client *http.Client, name string, o map[string]any) bool {
	data, err := json.Marshal(map[string]any{"observations": []map[string]any{o}})
	if err != nil {
		return false
	}
	resp, err := client.Post(p.base+"/v1/"+name+"/observe", "application/json", bytes.NewReader(data))
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

func (p *proc) observedTotal(name string) uint64 {
	p.t.Helper()
	status, body := p.get("/v1/estimators")
	if status != http.StatusOK {
		p.t.Fatalf("list: status %d: %s", status, body)
	}
	var resp struct {
		Estimators []struct {
			Name     string `json:"name"`
			Observed uint64 `json:"observed_total"`
		} `json:"estimators"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		p.t.Fatal(err)
	}
	for _, e := range resp.Estimators {
		if e.Name == name {
			return e.Observed
		}
	}
	p.t.Fatalf("estimator %s missing: %s", name, body)
	return 0
}

func (p *proc) train(name string) {
	p.t.Helper()
	if status, body := p.post("/v1/"+name+"/train", map[string]any{}); status != http.StatusOK {
		p.t.Fatalf("train %s: status %d: %s", name, status, body)
	}
}

func (p *proc) estimate(name, where string) float64 {
	p.t.Helper()
	status, body := p.get("/v1/" + name + "/estimate?where=" + url.QueryEscape(where))
	if status != http.StatusOK {
		p.t.Fatalf("estimate %s: status %d: %s", name, status, body)
	}
	var resp struct {
		Selectivity float64 `json:"selectivity"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		p.t.Fatal(err)
	}
	return resp.Selectivity
}

func TestClusterFailoverE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon and router binaries")
	}
	daemonBin := buildBinary(t, "quicksel/cmd/quickseld", "quickseld")
	routerBin := buildBinary(t, "quicksel/cmd/quickselrouter", "quickselrouter")

	// Two shards, each a semi-sync primary + follower with -wal-fsync
	// always: an acknowledged write survives SIGKILL of its primary.
	type shardProcs struct {
		id       string
		primary  *proc
		follower *proc
	}
	startShard := func(id string) *shardProcs {
		pAddr, fAddr := clusterFreeAddr(t), clusterFreeAddr(t)
		pDir, fDir := t.TempDir(), t.TempDir()
		primary := startProc(t, daemonBin, pAddr,
			"-snapshot", filepath.Join(pDir, "snap.json"),
			"-wal-dir", filepath.Join(pDir, "wal"),
			"-wal-fsync", "always",
			"-repl-ack", "follower",
			"-train-interval", "1h",
			"-drift-threshold", "-1",
			"-seed", "7",
			"-advertise-url", "http://"+pAddr,
			"-node-id", id+"/p")
		primary.waitReady(15 * time.Second)
		follower := startProc(t, daemonBin, fAddr,
			"-snapshot", filepath.Join(fDir, "snap.json"),
			"-wal-dir", filepath.Join(fDir, "wal"),
			"-wal-fsync", "always",
			"-train-interval", "1h",
			"-drift-threshold", "-1",
			"-seed", "7",
			"-role", "follower",
			"-primary-url", "http://"+pAddr,
			"-advertise-url", "http://"+fAddr,
			"-node-id", id+"/f")
		follower.waitReady(15 * time.Second)
		return &shardProcs{id: id, primary: primary, follower: follower}
	}
	s0, s1 := startShard("s0"), startShard("s1")

	router := startProc(t, routerBin, clusterFreeAddr(t),
		"-shard", "s0="+s0.primary.base+","+s0.follower.base,
		"-shard", "s1="+s1.primary.base+","+s1.follower.base,
		"-health-interval", "100ms")
	router.waitReady(15 * time.Second)

	// Pick one estimator owned by each shard, computed from the same ring
	// the router builds.
	m, err := cluster.BuildMap([]cluster.Shard{
		{ID: "s0", Nodes: []cluster.Node{{URL: s0.primary.base}, {URL: s0.follower.base}}},
		{ID: "s1", Nodes: []cluster.Node{{URL: s1.primary.base}, {URL: s1.follower.base}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	estA, estB := "", ""
	for i := 0; estA == "" || estB == ""; i++ {
		name := fmt.Sprintf("tbl%02d", i)
		switch {
		case ring.Owner(name) == "s0" && estA == "":
			estA = name
		case ring.Owner(name) == "s1" && estB == "":
			estB = name
		}
	}

	// Create both estimators through the router; each must land on its
	// ring owner's primary (checked against the shard directly).
	router.createEstimator(estA)
	router.createEstimator(estB)
	if got := s0.primary.observedTotal(estA); got != 0 {
		t.Fatalf("estA on s0 primary: observed_total = %d before any stream", got)
	}
	if got := s1.primary.observedTotal(estB); got != 0 {
		t.Fatalf("estB on s1 primary: observed_total = %d before any stream", got)
	}

	obsA := clusterObservations(120, 99)
	obsB := clusterObservations(60, 17)
	probes := []string{
		"age >= 30",
		"age BETWEEN 25 AND 55 AND salary >= 100000",
		"salary < 60000",
		"age >= 70 OR salary >= 250000",
	}

	// Warm-up mixed traffic through the router: a first slice of both
	// streams plus estimate reads against both shards.
	router.stream(estA, obsA[:20], 5)
	router.stream(estB, obsB[:20], 5)
	router.estimate(estA, probes[0])
	router.estimate(estB, probes[0])

	// Stream the rest of estA one observation at a time and SIGKILL the
	// s0 primary once 40 further observations are acknowledged. Only fully
	// acknowledged observations count toward the loss bound.
	client := &http.Client{Timeout: 10 * time.Second}
	ackCh := make(chan int, 1)
	killAt := make(chan struct{})
	go func() {
		acked := 20 // warm-up slice, already strictly acked
		for _, o := range obsA[20:] {
			if !router.observeOneLoose(client, estA, o) {
				break
			}
			acked++
			if acked == 60 {
				close(killAt)
			}
		}
		ackCh <- acked
	}()
	select {
	case <-killAt:
	case <-time.After(30 * time.Second):
		t.Fatal("stream never reached 60 acknowledged observations")
	}
	s0.primary.kill9()
	ackedA := <-ackCh
	if ackedA < 60 {
		t.Fatalf("acknowledged %d estA observations, want >= 60", ackedA)
	}

	// Shard isolation: with s0's primary dead, s1 traffic through the
	// router keeps flowing with strict acks.
	router.stream(estB, obsB[20:], 5)
	router.estimate(estB, probes[1])

	// Failover: promote s0's follower, wait for it to serve as primary,
	// then wait for the router's health probes to re-aim shard s0 at it.
	if status, body := s0.follower.post("/v1/replication/promote", map[string]any{}); status != http.StatusOK {
		t.Fatalf("promote: status %d: %s", status, body)
	}
	s0.follower.waitReady(10 * time.Second)
	reaimDeadline := time.Now().Add(15 * time.Second)
	for {
		status, body := router.get("/v1/cluster/status")
		if status != http.StatusOK {
			t.Fatalf("cluster status: %d: %s", status, body)
		}
		var st struct {
			Ready  bool `json:"ready"`
			Shards []struct {
				ID          string `json:"id"`
				PrimaryURL  string `json:"primary_url"`
				PrimaryLive bool   `json:"primary_live"`
			} `json:"shards"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		reaimed := false
		for _, sh := range st.Shards {
			if sh.ID == "s0" && sh.PrimaryLive && sh.PrimaryURL == s0.follower.base {
				reaimed = true
			}
		}
		if reaimed && st.Ready {
			break
		}
		if time.Now().After(reaimDeadline) {
			t.Fatalf("router never re-aimed s0 at the promoted follower: %s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Zero acknowledged loss: the promoted follower holds at least every
	// estA observation the dead primary acknowledged. (It may hold a few
	// more: appended and shipped but killed before the ack went out.)
	gotA := s0.follower.observedTotal(estA)
	if gotA < uint64(ackedA) {
		t.Fatalf("promoted follower holds %d estA observations, %d were acknowledged (acked observation lost)", gotA, ackedA)
	}
	if gotA > uint64(len(obsA)) {
		t.Fatalf("promoted follower holds %d estA observations, only %d were streamed", gotA, len(obsA))
	}

	// Resume the remainder of estA through the router — it now proxies
	// shard s0 writes to the promoted follower with strict acks.
	router.stream(estA, obsA[gotA:], 5)

	// Bit-identity: one unsharded control daemon fed the exact same
	// streams must answer every estimate, for both estimators, bit for bit
	// with the cluster behind the router.
	ctrlDir := t.TempDir()
	control := startProc(t, daemonBin, clusterFreeAddr(t),
		"-snapshot", filepath.Join(ctrlDir, "snap.json"),
		"-wal-dir", filepath.Join(ctrlDir, "wal"),
		"-train-interval", "1h",
		"-drift-threshold", "-1",
		"-seed", "7")
	control.waitReady(15 * time.Second)
	control.createEstimator(estA)
	control.createEstimator(estB)
	control.stream(estA, obsA, 5)
	control.stream(estB, obsB, 5)

	for _, name := range []string{estA, estB} {
		router.train(name)
		control.train(name)
		for _, p := range probes {
			want := control.estimate(name, p)
			if have := router.estimate(name, p); have != want {
				t.Errorf("estimate(%s, %q) = %v through the router, unsharded control = %v (must be bit-identical)", name, p, have, want)
			}
		}
	}

	// The router observed the failover: the reroute/retry counters moved
	// and the cluster status lists four nodes across two shards.
	_, metrics := router.get("/metrics")
	if !bytes.Contains(metrics, []byte("quickselrouter_requests_total")) {
		t.Fatalf("router metrics missing core counters:\n%.1000s", metrics)
	}
	status, body := router.get("/v1/estimators")
	if status != http.StatusOK {
		t.Fatalf("merged list: status %d: %s", status, body)
	}
	if !strings.Contains(string(body), estA) || !strings.Contains(string(body), estB) {
		t.Fatalf("merged list missing estimators: %s", body)
	}
}
