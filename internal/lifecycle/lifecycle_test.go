package lifecycle

import (
	"encoding/json"
	"math"
	"testing"
)

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", PolicyAlways, true},
		{"always", PolicyAlways, true},
		{"never", PolicyNever, true},
		{"shadow", PolicyShadow, true},
		{"sometimes", "", false},
	} {
		got, err := ParsePolicy(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParsePolicy(%q) succeeded, want error", tc.in)
		}
	}
}

func TestQError(t *testing.T) {
	if got := QError(0.2, 0.1); got != 2 {
		t.Errorf("QError(0.2, 0.1) = %v, want 2", got)
	}
	if got := QError(0.1, 0.2); got != 2 {
		t.Errorf("QError(0.1, 0.2) = %v, want 2", got)
	}
	// Zero actuals are floored, not infinite.
	if got := QError(0.5, 0); math.IsInf(got, 1) || got <= 1 {
		t.Errorf("QError(0.5, 0) = %v, want finite > 1", got)
	}
	if got := QError(0, 0); got != 1 {
		t.Errorf("QError(0, 0) = %v, want 1", got)
	}
}

// TestTrackerWindow checks the ring keeps the newest Window samples in
// order.
func TestTrackerWindow(t *testing.T) {
	tr := NewTracker(Config{Window: 4, DriftThreshold: math.Inf(1)})
	for i := 0; i < 10; i++ {
		tr.Add(float64(i)/100, float64(i)/100)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	samples := tr.Samples()
	for i, s := range samples {
		want := float64(6+i) / 100
		if s.Estimate != want {
			t.Errorf("sample %d estimate = %v, want %v", i, s.Estimate, want)
		}
	}
	rep := tr.Report()
	if rep.Samples != 4 || rep.MAE != 0 || rep.MeanQError != 1 {
		t.Errorf("report = %+v, want 4 perfect samples", rep)
	}
}

// TestTrackerDriftDetection checks the Page–Hinkley alarm: a run of accurate
// estimates followed by a persistent error jump must trip the detector, and
// accurate estimates alone must not.
func TestTrackerDriftDetection(t *testing.T) {
	cfg := Config{Window: 64, DriftThreshold: 0.2}
	tr := NewTracker(cfg)
	for i := 0; i < 50; i++ {
		if tr.Add(0.30, 0.31) {
			t.Fatalf("drift alarm on accurate sample %d", i)
		}
	}
	fired := -1
	for i := 0; i < 50; i++ {
		if tr.Add(0.30, 0.75) { // persistent 0.45 error
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatal("drift never detected under a persistent error jump")
	}
	if !tr.Drifted() {
		t.Fatal("alarm not latched")
	}
	if tr.Report().DriftEvents != 1 {
		t.Fatalf("drift events = %d, want 1", tr.Report().DriftEvents)
	}
	// Alarm stays latched (no double counting) until acknowledged.
	tr.Add(0.30, 0.75)
	if tr.Report().DriftEvents != 1 {
		t.Fatal("latched alarm re-counted")
	}
	tr.ResetDrift()
	if tr.Drifted() {
		t.Fatal("ResetDrift did not clear the alarm")
	}
	if tr.Report().DriftEvents != 1 {
		t.Fatal("ResetDrift erased the event count")
	}
}

// TestTrackerDisabled checks negative and +Inf thresholds disable detection
// entirely.
func TestTrackerDisabled(t *testing.T) {
	for _, lambda := range []float64{-1, math.Inf(1)} {
		tr := NewTracker(Config{Window: 16, DriftThreshold: lambda})
		for i := 0; i < 100; i++ {
			if tr.Add(0, 1) {
				t.Fatalf("disabled detector (λ=%v) alarmed", lambda)
			}
		}
	}
}

// TestTrackerStateRoundTrip checks persistence resumes tracking with
// identical statistics.
func TestTrackerStateRoundTrip(t *testing.T) {
	cfg := Config{Window: 8, DriftThreshold: 0.3}
	tr := NewTracker(cfg)
	for i := 0; i < 20; i++ {
		tr.Add(float64(i%5)/10, float64((i+1)%5)/10)
	}
	data, err := json.Marshal(tr.State())
	if err != nil {
		t.Fatal(err)
	}
	var st TrackerState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	restored := RestoreTracker(cfg, &st)
	if got, want := restored.Report(), tr.Report(); got != want {
		t.Fatalf("restored report %+v != original %+v", got, want)
	}
	if got, want := restored.Samples(), tr.Samples(); len(got) != len(want) {
		t.Fatalf("restored %d samples, want %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("sample %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
}

func payload(s string) json.RawMessage { return json.RawMessage(`"` + s + `"`) }

// TestStorePromoteRollback walks the version store through the champion /
// challenger / rollback protocol.
func TestStorePromoteRollback(t *testing.T) {
	s := NewStore(3)
	s.Init(OriginInitial, payload("v1"))
	if cur := s.Current(); cur.ID != 1 || cur.Origin != OriginInitial {
		t.Fatalf("current = %+v, want initial id 1", cur)
	}

	// Promote v2: v1 archived.
	s.Add(OriginTrained, payload("v2"), 10, Metrics{}, nil, true)
	if cur := s.Current(); cur.ID != 2 {
		t.Fatalf("current id = %d, want 2", cur.ID)
	}
	if h := s.History(); len(h) != 1 || h[0].ID != 1 {
		t.Fatalf("history = %+v, want [v1]", h)
	}

	// Reject v3: archived, current unchanged.
	s.Add(OriginRejected, payload("v3"), 20, Metrics{}, &ShadowResult{Promote: false}, false)
	if cur := s.Current(); cur.ID != 2 {
		t.Fatalf("rejection changed current to %d", cur.ID)
	}
	if h := s.History(); len(h) != 2 || h[0].ID != 3 || h[1].ID != 1 {
		t.Fatalf("history = %+v, want [v3 v1]", h)
	}

	// Listings carry no payloads.
	for _, v := range append(s.History(), s.Current()) {
		if v.Payload != nil {
			t.Fatalf("listing leaked payload for version %d", v.ID)
		}
	}

	// Default rollback: most recently archived (v3 — manual promotion of a
	// rejected challenger).
	v, err := s.Rollback(0)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 3 || string(v.Payload) != `"v3"` {
		t.Fatalf("rollback chose %+v, want v3 with payload", v)
	}
	if h := s.History(); len(h) != 2 || h[0].ID != 2 || h[1].ID != 1 {
		t.Fatalf("history after rollback = %+v, want [v2 v1]", h)
	}

	// Explicit rollback to v1.
	v, err = s.Rollback(1)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 1 || string(v.Payload) != `"v1"` {
		t.Fatalf("rollback chose %+v, want v1", v)
	}

	// Unknown version.
	if _, err := s.Rollback(99); err == nil {
		t.Fatal("rollback to unknown version succeeded")
	}

	// Rolling back to the current version is a no-op.
	cur := s.Current()
	if v, err := s.Rollback(cur.ID); err != nil || v.ID != cur.ID {
		t.Fatalf("rollback to current = %+v, %v", v, err)
	}
}

// TestStoreBound checks eviction: the oldest archived versions fall off.
func TestStoreBound(t *testing.T) {
	s := NewStore(2)
	s.Init(OriginInitial, payload("v1"))
	for i := 0; i < 5; i++ {
		s.Add(OriginTrained, payload("x"), uint64(i), Metrics{}, nil, true)
	}
	h := s.History()
	if len(h) != 2 {
		t.Fatalf("history length = %d, want 2", len(h))
	}
	if h[0].ID != 5 || h[1].ID != 4 {
		t.Fatalf("history = [%d %d], want [5 4]", h[0].ID, h[1].ID)
	}
	if _, err := s.Rollback(1); err == nil {
		t.Fatal("rollback to evicted version succeeded")
	}
}

// TestStoreStateRoundTrip checks persistence, including the elided current
// payload being reattached.
func TestStoreStateRoundTrip(t *testing.T) {
	s := NewStore(3)
	s.Init(OriginInitial, payload("v1"))
	s.Add(OriginTrained, payload("v2"), 7, Metrics{MAE: 0.1, Samples: 7}, nil, true)

	data, err := json.Marshal(s.State(true))
	if err != nil {
		t.Fatal(err)
	}
	var st StoreState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	r := RestoreStore(3, &st, payload("v2"))
	if cur := r.Current(); cur.ID != 2 || cur.Observations != 7 {
		t.Fatalf("restored current = %+v", cur)
	}
	// Rollback still works and next IDs continue from the restored maximum.
	v, err := r.Rollback(0)
	if err != nil || v.ID != 1 {
		t.Fatalf("rollback after restore = %+v, %v", v, err)
	}
	nv := r.Add(OriginTrained, payload("v3"), 9, Metrics{}, nil, true)
	if nv.ID != 3 {
		t.Fatalf("next id after restore = %d, want 3", nv.ID)
	}
}

// TestShadowGate checks the scoring rule and the tie-goes-to-challenger
// convention.
func TestShadowGate(t *testing.T) {
	actuals := []float64{0.2, 0.4, 0.1}
	good := []float64{0.21, 0.39, 0.11}
	bad := []float64{0.8, 0.9, 0.7}

	if res := Shadow(actuals, good, bad); res.Promote {
		t.Fatalf("bad challenger promoted over good champion: %+v", res)
	}
	if res := Shadow(actuals, bad, good); !res.Promote {
		t.Fatalf("good challenger rejected against bad champion: %+v", res)
	}
	if res := Shadow(actuals, good, good); !res.Promote {
		t.Fatalf("tie must promote the challenger: %+v", res)
	}
	if res := Shadow(nil, nil, nil); !res.Promote || res.Holdout != 0 {
		t.Fatalf("empty holdout must promote: %+v", res)
	}
}

func TestHoldoutSize(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {4, 1}, {8, 2}, {100, 25},
	} {
		if got := HoldoutSize(tc.n); got != tc.want {
			t.Errorf("HoldoutSize(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	// The holdout must always leave at least one training record.
	for n := 2; n <= 100; n++ {
		if got := HoldoutSize(n); got < 1 || got > n-1 {
			t.Errorf("HoldoutSize(%d) = %d, want in [1, %d]", n, got, n-1)
		}
	}
}

func TestConfigMergeDefaults(t *testing.T) {
	base := Config{Policy: PolicyShadow, Window: 128}
	merged := base.Merge(Config{DriftThreshold: 0.1})
	if merged.Policy != PolicyShadow || merged.Window != 128 || merged.DriftThreshold != 0.1 {
		t.Fatalf("merge = %+v", merged)
	}
	d := Config{}.WithDefaults()
	if d.Policy != PolicyAlways || d.Window != DefaultWindow || d.DriftThreshold != DefaultDriftThreshold ||
		d.History != DefaultHistory {
		t.Fatalf("defaults = %+v", d)
	}
}
