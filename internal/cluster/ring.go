// Package cluster implements quickseld's sharded-cluster layer: a
// deterministic consistent-hash ring with virtual nodes that places named
// estimators on shards, node descriptors for the processes backing each
// shard, and a health tracker that polls every node's readiness and
// replication status so a router's view of each shard's primary and
// caught-up followers stays current across failovers.
//
// The package deliberately depends only on the HTTP surface every quickseld
// node already serves (/readyz, GET /v1/replication/status) — not on the
// server internals — so any process can embed a cluster view: the
// quickselrouter front door, a smart client, or an operator tool.
//
// # Placement
//
// Placement is a classic consistent-hash ring with virtual nodes: each
// shard contributes Vnodes points (hashes of "shardID/i"), the points are
// sorted, and an estimator name is owned by the shard of the first point at
// or clockwise past the name's hash. Two properties make this the right
// structure for a fleet of independent routers:
//
//   - Deterministic: the ring is a pure function of the shard map and the
//     vnode count — no randomness, no boot-time state — so every router
//     (and every restart of the same router) computes the identical
//     placement. The map carries a Version hashed from its canonical
//     encoding; routers can compare versions cheaply to detect drift.
//   - Minimal movement: adding or removing a shard moves only the keys
//     whose owning arc the change affected (~1/shards of the keyspace),
//     never reshuffling the rest. The property tests pin both this and the
//     distribution balance at the default 128 vnodes.
package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// DefaultVnodes is the virtual-node count per shard. 128 points per shard
// keeps the largest shard's keyspace share within ~±20% of the mean (see
// TestRingBalance) while the ring stays small enough to rebuild in
// microseconds.
const DefaultVnodes = 128

// Node describes one quickseld process: a stable identity and the base URL
// the router reaches it at.
type Node struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Shard is one replication group: a primary plus its followers, all serving
// the same estimator subset. Nodes[0] is the presumed primary until the
// health tracker observes roles; the order of the rest is immaterial.
type Shard struct {
	ID    string `json:"id"`
	Nodes []Node `json:"nodes"`
}

// Map is the deterministic, versioned shard map: the authoritative list of
// shards (sorted by ID) plus a Version hashed from the canonical encoding,
// so two routers configured with the same shards agree on placement and can
// prove it by comparing one integer.
type Map struct {
	Version uint64  `json:"version"`
	Shards  []Shard `json:"shards"`
}

// BuildMap validates and canonicalizes a shard list into a versioned Map:
// shards sorted by ID, every ID unique and non-empty, every shard with at
// least one node, every node with an http(s) URL. Node IDs left empty are
// filled in as "<shard>/<index>".
func BuildMap(shards []Shard) (Map, error) {
	if len(shards) == 0 {
		return Map{}, fmt.Errorf("cluster: a map needs at least one shard")
	}
	out := make([]Shard, len(shards))
	seen := map[string]bool{}
	for i, sh := range shards {
		if sh.ID == "" {
			return Map{}, fmt.Errorf("cluster: shard %d has an empty ID", i)
		}
		if strings.ContainsAny(sh.ID, " \t\n/") {
			return Map{}, fmt.Errorf("cluster: shard ID %q must not contain spaces or '/'", sh.ID)
		}
		if seen[sh.ID] {
			return Map{}, fmt.Errorf("cluster: duplicate shard ID %q", sh.ID)
		}
		seen[sh.ID] = true
		if len(sh.Nodes) == 0 {
			return Map{}, fmt.Errorf("cluster: shard %q has no nodes", sh.ID)
		}
		nodes := make([]Node, len(sh.Nodes))
		for j, n := range sh.Nodes {
			if !strings.HasPrefix(n.URL, "http://") && !strings.HasPrefix(n.URL, "https://") {
				return Map{}, fmt.Errorf("cluster: shard %q node %d: URL %q must be http(s)", sh.ID, j, n.URL)
			}
			if n.ID == "" {
				n.ID = fmt.Sprintf("%s/%d", sh.ID, j)
			}
			nodes[j] = Node{ID: n.ID, URL: strings.TrimSuffix(n.URL, "/")}
		}
		out[i] = Shard{ID: sh.ID, Nodes: nodes}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	m := Map{Shards: out}
	m.Version = m.contentHash()
	return m, nil
}

// contentHash hashes the map's canonical encoding: shard IDs and node
// id=url pairs in sorted shard order. Node order within a shard is part of
// the identity (Nodes[0] is the presumed primary).
func (m Map) contentHash() uint64 {
	h := uint64(fnvOffset)
	write := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= fnvPrime
		}
	}
	write("quickselmap/v1\n")
	for _, sh := range m.Shards {
		write("shard " + sh.ID + "\n")
		for _, n := range sh.Nodes {
			write("node " + n.ID + " " + n.URL + "\n")
		}
	}
	return mix64(h)
}

// ShardIDs lists the map's shard IDs in sorted order.
func (m Map) ShardIDs() []string {
	ids := make([]string, len(m.Shards))
	for i, sh := range m.Shards {
		ids[i] = sh.ID
	}
	return ids
}

// FNV-1a 64-bit constants; the raw FNV value is finished with a
// murmur-style mixer because FNV alone clusters on short suffix-varying
// keys (estimator names, "shard/<i>" vnode labels) and ring balance lives
// and dies on avalanche quality.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func hashKey(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer: full-avalanche bijection over uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash  uint64
	shard int // index into shards
}

// Ring maps estimator names onto shards. Build one with NewRing; it is
// immutable and safe for concurrent use.
type Ring struct {
	points  []ringPoint
	shards  []string
	vnodes  int
	version uint64
}

// NewRing builds the consistent-hash ring for a map: vnodes points per
// shard (0 selects DefaultVnodes), sorted by hash with shard ID breaking
// the (astronomically unlikely) ties, so the ring is a deterministic
// function of (map, vnodes).
func NewRing(m Map, vnodes int) (*Ring, error) {
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("cluster: ring needs a non-empty map")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{
		points: make([]ringPoint, 0, vnodes*len(m.Shards)),
		shards: m.ShardIDs(),
		vnodes: vnodes,
		// The ring version folds the vnode count into the map version:
		// routers disagreeing on either would place keys differently.
		version: mix64(m.Version ^ uint64(vnodes)),
	}
	for si, id := range r.shards {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash:  hashKey(fmt.Sprintf("%s/%d", id, i)),
				shard: si,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return r.shards[a.shard] < r.shards[b.shard]
	})
	return r, nil
}

// Owner returns the shard ID owning a key: the shard of the first ring
// point at or clockwise past the key's hash (wrapping at the top).
func (r *Ring) Owner(key string) string {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.shards[r.points[i].shard]
}

// Version identifies the exact placement function: equal versions on two
// routers guarantee they route every estimator identically.
func (r *Ring) Version() uint64 { return r.version }

// Vnodes reports the virtual-node count per shard.
func (r *Ring) Vnodes() int { return r.vnodes }

// Shards lists the ring's shard IDs in sorted order. The slice is shared —
// do not mutate.
func (r *Ring) Shards() []string { return r.shards }
