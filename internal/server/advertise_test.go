package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"quicksel/internal/replica"
)

// TestAdvertiseURLOnStatusAndWAL: a node with NodeID/AdvertiseURL reports
// them on GET /v1/replication/status, and a primary stamps its advertised
// address on WAL fetch responses so followers learn the reachable URL from
// the stream itself.
func TestAdvertiseURLOnStatusAndWAL(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{
		SnapshotPath: filepath.Join(dir, "state.json"),
		WALDir:       filepath.Join(dir, "wal"),
		NodeID:       "node-a",
		AdvertiseURL: "http://reachable.example:7075",
	})

	status, body := doJSON(t, "GET", ts.URL+"/v1/replication/status", "")
	mustStatus(t, http.StatusOK, status, body)
	var st struct {
		Role         string `json:"role"`
		NodeID       string `json:"node_id"`
		AdvertiseURL string `json:"advertise_url"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.NodeID != "node-a" || st.AdvertiseURL != "http://reachable.example:7075" {
		t.Fatalf("status identity = %+v", st)
	}

	// A WAL record must exist for the fetch to return 200 promptly.
	createPeople(t, ts.URL)
	resp, err := http.Get(ts.URL + "/v1/replication/wal?from=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wal fetch status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(replica.HeaderPrimary); got != "http://reachable.example:7075" {
		t.Fatalf("%s on WAL response = %q, want the advertised URL", replica.HeaderPrimary, got)
	}
}

// TestNoAdvertiseURLOmitted: without AdvertiseURL the status omits the
// identity fields and WAL responses carry no primary hint — the
// pre-advertise wire behaviour.
func TestNoAdvertiseURLOmitted(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{
		SnapshotPath: filepath.Join(dir, "state.json"),
		WALDir:       filepath.Join(dir, "wal"),
	})
	createPeople(t, ts.URL)

	status, body := doJSON(t, "GET", ts.URL+"/v1/replication/status", "")
	mustStatus(t, http.StatusOK, status, body)
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["advertise_url"]; ok {
		t.Fatal("advertise_url present without -advertise-url")
	}

	resp, err := http.Get(ts.URL + "/v1/replication/wal?from=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(replica.HeaderPrimary); got != "" {
		t.Fatalf("%s = %q without an advertise URL", replica.HeaderPrimary, got)
	}
}

// TestPrimaryURLPrefersAdvertised: the 503 hint a follower hands write
// clients follows the live advertised primary from the replication stream,
// falling back to the configured -primary-url until one is learned.
func TestPrimaryURLPrefersAdvertised(t *testing.T) {
	reg := newFollowerReg(t, nil)

	if got := reg.PrimaryURL(); got != "http://primary.example:7075" {
		t.Fatalf("PrimaryURL before any stream contact = %q", got)
	}

	// The fetch loop pushes status including the primary's self-advertised
	// address; the hint must switch to it.
	adv := ""
	reg.SetReplicationStatus(func() replica.Stats {
		return replica.Stats{PrimaryURL: adv}
	})
	if got := reg.PrimaryURL(); got != "http://primary.example:7075" {
		t.Fatalf("PrimaryURL with empty advertised = %q", got)
	}
	adv = "http://promoted.example:7076"
	if got := reg.PrimaryURL(); got != "http://promoted.example:7076" {
		t.Fatalf("PrimaryURL with advertised primary = %q", got)
	}

	// GET /v1/replication/status carries the fetch loop's state, the
	// learned address as advertised_primary.
	rec := httptest.NewRecorder()
	(&Server{reg: reg}).handleReplicationStatus(rec, httptest.NewRequest("GET", "/v1/replication/status", nil))
	var body struct {
		Replication map[string]any `json:"replication"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range body.Replication {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "advertised_primary,bytes,caught_up,fetch_errors,fetches,gap_responses,healthy,lag,records,torn_responses" ||
		body.Replication["advertised_primary"] != adv {
		t.Fatalf("replication status = %s", rec.Body)
	}
}

// TestRequestIDPropagation: a sane incoming X-Request-Id is reused as the
// trace ID (router → shard correlation); a malformed one is replaced with a
// freshly minted ID.
func TestRequestIDPropagation(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{
		SnapshotPath:  filepath.Join(dir, "state.json"),
		TrainInterval: time.Hour,
	})
	createPeople(t, ts.URL)

	do := func(id string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/estimators", nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.Header.Get("X-Request-Id")
	}

	if got := do("router-abc-42"); got != "router-abc-42" {
		t.Fatalf("propagated id = %q, want router-abc-42", got)
	}
	long := strings.Repeat("x", 300) // over obs.MaxRequestIDLen
	if got := do(long); got == long || got == "" {
		t.Fatalf("over-length id echoed back verbatim (len %d)", len(got))
	}
	if got := do(""); got == "" {
		t.Fatal("no id minted without an incoming header")
	}

	// The reused ID must land in the trace ring under that exact ID.
	found := false
	for _, tr := range srv.Registry().ring.Traces() {
		if tr.ID == "router-abc-42" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("propagated request id not recorded in the trace ring")
	}
}
