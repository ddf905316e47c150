package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"quicksel/internal/obs"
)

// Telemetry federation: the tracker polls every node's GET /v1/telemetry on
// its health cadence and Federate merges the per-node snapshots into one
// cluster view — counters summed and histograms merged bucket-wise per
// (shard, role), every family renamed into the quickselcluster_* namespace
// so a router's own quickselrouter_* series and the shards' quickseld_*
// series it scrapes directly can never collide.
// Gauges are deliberately NOT federated: summing instantaneous per-node
// facts (backlog, lag, model version) across a cluster produces numbers that
// mean nothing; consumers who need them read /v1/cluster/telemetry, where
// every node's full snapshot travels unmerged.

// NodeTelemetry pairs one node's latest polled telemetry snapshot with its
// provenance — which shard and node it came from, when, and the last poll
// error if the snapshot is going stale.
type NodeTelemetry struct {
	Shard string `json:"shard"`
	Node  string `json:"node"`
	URL   string `json:"url"`
	// Role is the role the node itself reported inside the snapshot
	// (primary/follower), not the tracker's possibly-older probe view.
	Role      string         `json:"role,omitempty"`
	FetchedAt time.Time      `json:"fetched_at,omitzero"`
	Err       string         `json:"error,omitempty"`
	Telemetry *obs.Telemetry `json:"telemetry,omitempty"`
}

// maxTelemetryBody bounds one /v1/telemetry response decode (a snapshot of
// hundreds of estimators with full bucket lists is still well under 1 MiB).
const maxTelemetryBody = 8 << 20

func (t *Tracker) probeTelemetry(ctx context.Context, base string) (*obs.Telemetry, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/telemetry", nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("status %d from %s/v1/telemetry", resp.StatusCode, base)
	}
	var tel obs.Telemetry
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxTelemetryBody)).Decode(&tel); err != nil {
		return nil, fmt.Errorf("decode telemetry: %w", err)
	}
	return &tel, nil
}

// Telemetry returns every node's latest polled snapshot, shards in ring
// order and nodes in map order. A node never successfully polled has a nil
// Telemetry and zero FetchedAt — Federate turns that into a staleness gauge
// rather than dropping the node silently.
func (t *Tracker) Telemetry() []NodeTelemetry {
	var out []NodeTelemetry
	for _, shard := range t.ring.Shards() {
		t.mu.Lock()
		states := t.nodes[shard]
		t.mu.Unlock()
		for _, ns := range states {
			ns.mu.Lock()
			nt := NodeTelemetry{
				Shard:     ns.shard,
				Node:      ns.node.ID,
				URL:       ns.node.URL,
				FetchedAt: ns.telemAt,
				Err:       ns.telemErr,
				Telemetry: ns.telem,
			}
			ns.mu.Unlock()
			if nt.Telemetry != nil {
				nt.Role = nt.Telemetry.Role
			}
			out = append(out, nt)
		}
	}
	return out
}

// Federate merges per-node telemetry snapshots into one cluster-level
// Telemetry: counter series summed and histogram series merged bucket-wise
// per (original labels + shard + role), families renamed quickseld_* →
// quickselcluster_*, followed by two per-node staleness families —
// quickselcluster_telemetry_age_seconds (age of each node's snapshot, only
// present once a node has answered at least once) and
// quickselcluster_telemetry_stale (1 when a node has never answered or its
// snapshot is older than staleAfter) — so a dead scrape is visible instead
// of silently flattening the aggregate. Family order is first-seen across
// nodes; series within a family sort by label string, so output is
// deterministic for a fixed input.
func Federate(nodes []NodeTelemetry, staleAfter time.Duration, now time.Time) obs.Telemetry {
	type numAgg struct {
		labels map[string]string
		value  float64
	}
	type histAgg struct {
		labels map[string]string
		snap   obs.HistSnapshot
	}
	type famAgg struct {
		help, typ, unit string
		nums            map[string]*numAgg
		hists           map[string]*histAgg
	}
	fams := map[string]*famAgg{}
	var famOrder []string
	for _, nt := range nodes {
		if nt.Telemetry == nil || nt.Telemetry.Version != obs.TelemetryVersion {
			continue
		}
		role := nt.Telemetry.Role
		if role == "" {
			role = "unknown"
		}
		for _, f := range nt.Telemetry.Families {
			if f.Type != "counter" && f.Type != "histogram" {
				continue // gauges are per-node facts; a cluster sum would lie
			}
			name := "quickselcluster_" + strings.TrimPrefix(f.Name, "quickseld_")
			fa, ok := fams[name]
			if !ok {
				fa = &famAgg{
					help: f.Help + " Cluster-merged across nodes, labeled by shard and role.",
					typ:  f.Type, unit: f.Unit,
					nums: map[string]*numAgg{}, hists: map[string]*histAgg{},
				}
				fams[name] = fa
				famOrder = append(famOrder, name)
			}
			for _, s := range f.Series {
				labels := withShardRole(s.Labels, nt.Shard, role)
				key := obs.LabelString(labels)
				if agg, ok := fa.nums[key]; ok {
					agg.value += s.Value
				} else {
					fa.nums[key] = &numAgg{labels: labels, value: s.Value}
				}
			}
			for _, hs := range f.Hist {
				snap, ok := hs.Snapshot()
				if !ok {
					continue // incompatible bucket geometry; skip, don't skew
				}
				labels := withShardRole(hs.Labels, nt.Shard, role)
				key := obs.LabelString(labels)
				if agg, ok := fa.hists[key]; ok {
					agg.snap.Merge(snap)
				} else {
					fa.hists[key] = &histAgg{labels: labels, snap: snap}
				}
			}
		}
	}

	out := obs.Telemetry{Version: obs.TelemetryVersion}
	for _, name := range famOrder {
		fa := fams[name]
		f := obs.Family{Name: name, Help: fa.help, Type: fa.typ, Unit: fa.unit}
		keys := make([]string, 0, len(fa.nums)+len(fa.hists))
		for k := range fa.nums {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			f.Series = append(f.Series, obs.NumSeries{Labels: fa.nums[k].labels, Value: fa.nums[k].value})
		}
		keys = keys[:0]
		for k := range fa.hists {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			f.Hist = append(f.Hist, obs.HistSeriesFrom(fa.hists[k].labels, fa.hists[k].snap))
		}
		out.Families = append(out.Families, f)
	}

	ageFam := obs.Family{
		Name: "quickselcluster_telemetry_age_seconds",
		Help: "Age of each node's federated telemetry snapshot.", Type: "gauge",
	}
	staleFam := obs.Family{
		Name: "quickselcluster_telemetry_stale",
		Help: "1 when a node's telemetry snapshot is missing or older than the staleness bound.", Type: "gauge",
	}
	for _, nt := range nodes {
		labels := map[string]string{"shard": nt.Shard, "node": nt.Node}
		stale := 1.0
		if !nt.FetchedAt.IsZero() {
			age := now.Sub(nt.FetchedAt).Seconds()
			ageFam.Series = append(ageFam.Series, obs.NumSeries{Labels: labels, Value: age})
			if staleAfter <= 0 || age <= staleAfter.Seconds() {
				stale = 0
			}
		}
		staleFam.Series = append(staleFam.Series, obs.NumSeries{Labels: labels, Value: stale})
	}
	out.Families = append(out.Families, ageFam, staleFam)
	return out
}

// withShardRole copies a label set and stamps the federation labels onto it.
func withShardRole(labels map[string]string, shard, role string) map[string]string {
	out := make(map[string]string, len(labels)+2)
	for k, v := range labels {
		out[k] = v
	}
	out["shard"] = shard
	out["role"] = role
	return out
}
