package quicksel_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"quicksel"
)

// fixtureProbe is one frozen (WHERE, expected-estimate) pair.
type fixtureProbe struct {
	Where string  `json:"where"`
	Want  float64 `json:"want"`
}

// snapshotFixture mirrors testdata/gen's output shape.
type snapshotFixture struct {
	Comment  string             `json:"comment"`
	Snapshot *quicksel.Snapshot `json:"snapshot"`
	Probes   []fixtureProbe     `json:"probes"`
}

func loadSnapshotFixture(t *testing.T, name string) snapshotFixture {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var fx snapshotFixture
	if err := json.Unmarshal(data, &fx); err != nil {
		t.Fatalf("decode %s: %v", name, err)
	}
	if fx.Snapshot == nil || len(fx.Probes) == 0 {
		t.Fatalf("fixture %s is incomplete", name)
	}
	return fx
}

// envelopeFixtures is the full compatibility matrix: one committed fixture
// per supported envelope version, oldest first.
var envelopeFixtures = []struct {
	name       string
	version    int
	wantMethod string
}{
	{"snapshot_v1.json", 1, quicksel.MethodQuickSel},
	{"snapshot_v2.json", 2, quicksel.MethodSTHoles},
	{"snapshot_v3.json", 3, quicksel.MethodMaxEnt},
	{"snapshot_v4.json", 4, quicksel.MethodQuickSel},
	{"snapshot_v5.json", 5, quicksel.MethodQuickSel},
}

// TestSnapshotEnvelopeCompat restores every committed envelope fixture
// (v1 through v5) with current code and requires bit-identical estimates to
// the values frozen when the fixtures were generated. The fixtures are
// files on disk, not snapshots built in-process, so a format change that
// would break real persisted state breaks this test.
func TestSnapshotEnvelopeCompat(t *testing.T) {
	for _, tc := range envelopeFixtures {
		t.Run(tc.name, func(t *testing.T) {
			fx := loadSnapshotFixture(t, tc.name)
			if fx.Snapshot.Version != tc.version {
				t.Fatalf("fixture envelope version = %d, want %d (was the fixture regenerated?)",
					fx.Snapshot.Version, tc.version)
			}
			est, err := quicksel.Restore(fx.Snapshot)
			if err != nil {
				t.Fatalf("Restore(v%d): %v", tc.version, err)
			}
			if est.Method() != tc.wantMethod {
				t.Fatalf("restored method = %q, want %q", est.Method(), tc.wantMethod)
			}
			for _, p := range fx.Probes {
				got, err := est.EstimateWhere(p.Where)
				if err != nil {
					t.Fatal(err)
				}
				if got != p.Want {
					t.Errorf("EstimateWhere(%q) = %v, want bit-identical %v", p.Where, got, p.Want)
				}
			}
			// Pre-lifecycle envelopes carry no lifecycle section: the
			// restored estimator starts a fresh accuracy window rather than
			// failing.
			if acc := est.Accuracy(); tc.version < 3 && acc.Samples != 0 {
				t.Errorf("restored v%d estimator has %d accuracy samples, want 0", tc.version, acc.Samples)
			}
			// And re-snapshotting upgrades to the current envelope version.
			if s := est.Snapshot(); s.Version != quicksel.SnapshotVersion {
				t.Errorf("re-snapshot version = %d, want %d", s.Version, quicksel.SnapshotVersion)
			}
		})
	}
}

// TestSnapshotCrossVersionMatrix runs the full upgrade cycle for every
// fixture version: restore the old envelope, re-snapshot it at the current
// version, restore that, and require the estimates to stay bit-identical to
// the frozen values across both hops. This is the guarantee that upgrading
// a persisted model through the current code loses nothing.
func TestSnapshotCrossVersionMatrix(t *testing.T) {
	for _, tc := range envelopeFixtures {
		t.Run(tc.name, func(t *testing.T) {
			fx := loadSnapshotFixture(t, tc.name)
			est, err := quicksel.Restore(fx.Snapshot)
			if err != nil {
				t.Fatalf("Restore(v%d): %v", tc.version, err)
			}
			upgraded := est.Snapshot()
			if upgraded.Version != quicksel.SnapshotVersion {
				t.Fatalf("upgraded envelope version = %d, want %d", upgraded.Version, quicksel.SnapshotVersion)
			}
			// The upgraded envelope must survive a JSON round trip (the
			// persisted form) before restoring.
			raw, err := json.Marshal(upgraded)
			if err != nil {
				t.Fatal(err)
			}
			var decoded quicksel.Snapshot
			if err := json.Unmarshal(raw, &decoded); err != nil {
				t.Fatal(err)
			}
			est2, err := quicksel.Restore(&decoded)
			if err != nil {
				t.Fatalf("Restore(upgraded v%d): %v", tc.version, err)
			}
			for _, p := range fx.Probes {
				got, err := est2.EstimateWhere(p.Where)
				if err != nil {
					t.Fatal(err)
				}
				if got != p.Want {
					t.Errorf("after upgrade, EstimateWhere(%q) = %v, want bit-identical %v", p.Where, got, p.Want)
				}
			}
		})
	}
}

// TestSnapshotV5CoresetFieldsRoundTrip pins the v5 additions specifically:
// the fixture's merged observation weights and warm/coreset config must
// survive restore + re-snapshot exactly.
func TestSnapshotV5CoresetFieldsRoundTrip(t *testing.T) {
	fx := loadSnapshotFixture(t, "snapshot_v5.json")
	model := fx.Snapshot.Model
	if model == nil {
		t.Fatal("v5 fixture has no model state")
	}
	if !model.Config.WarmStart || model.Config.MaxObservations == 0 || model.Config.MergeThreshold == 0 {
		t.Fatalf("v5 fixture lost its warm/coreset config: %+v", model.Config)
	}
	merged := 0
	for _, o := range model.Observations {
		if o.Weight > 1 {
			merged++
		}
	}
	if merged == 0 {
		t.Fatal("v5 fixture carries no merged observation weight")
	}

	est, err := quicksel.Restore(fx.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	re := est.Snapshot()
	if re.Model == nil {
		t.Fatal("re-snapshot has no model state")
	}
	if re.Model.Config.WarmStart != model.Config.WarmStart ||
		re.Model.Config.MaxObservations != model.Config.MaxObservations ||
		re.Model.Config.MergeThreshold != model.Config.MergeThreshold {
		t.Fatalf("coreset config changed across round trip: %+v vs %+v", re.Model.Config, model.Config)
	}
	if len(re.Model.Observations) != len(model.Observations) {
		t.Fatalf("observation count changed: %d vs %d", len(re.Model.Observations), len(model.Observations))
	}
	for i, o := range model.Observations {
		if re.Model.Observations[i].Weight != o.Weight {
			t.Errorf("observation %d weight = %v, want %v", i, re.Model.Observations[i].Weight, o.Weight)
		}
	}
}

// TestSnapshotRoundTripBytes decodes every committed testdata/roundtrip
// snapshot — one per method, plus QuickSel with warm start and a coreset
// and with the iterative solver — and requires EncodeSnapshot to write the
// file back byte for byte. The files were written by an older build, so a
// change to any persisted name, field order, omitempty rule or number
// encoding fails here even when the restored estimates would still match.
func TestSnapshotRoundTripBytes(t *testing.T) {
	for _, name := range []string{
		"quicksel", "quicksel_warm", "quicksel_iterative",
		"sthole", "isomer", "maxent", "sample", "scanhist",
	} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "roundtrip", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			est, err := quicksel.DecodeSnapshot(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := est.EncodeSnapshot(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("re-encoded %s differs from the committed bytes:\n%s", name, got.Bytes())
			}
		})
	}
}
