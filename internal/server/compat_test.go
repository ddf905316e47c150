package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fixtureProbe is one frozen (WHERE, expected-estimate) pair.
type fixtureProbe struct {
	Where string  `json:"where"`
	Want  float64 `json:"want"`
}

// registryFixture mirrors testdata/gen's registry fixture shape: the raw
// old-format snapshot file plus frozen estimates per estimator.
type registryFixture struct {
	Comment string                    `json:"comment"`
	File    json.RawMessage           `json:"file"`
	Probes  map[string][]fixtureProbe `json:"probes"`
}

// TestRegistrySnapshotFileCompat boots a registry from the committed v1 and
// v2 snapshot files and requires bit-identical estimates to the values
// frozen when the fixtures were generated. Old files carry no lifecycle
// section, so the estimators must come up with fresh lifecycle state
// (version 1, origin "restored") and then persist in the current format.
func TestRegistrySnapshotFileCompat(t *testing.T) {
	for _, name := range []string{"registry_v1.json", "registry_v2.json"} {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			var fx registryFixture
			if err := json.Unmarshal(data, &fx); err != nil {
				t.Fatalf("decode fixture: %v", err)
			}
			if len(fx.Probes) == 0 {
				t.Fatal("fixture has no probes")
			}

			snap := filepath.Join(t.TempDir(), "state.json")
			if err := os.WriteFile(snap, fx.File, 0o644); err != nil {
				t.Fatal(err)
			}
			reg, err := NewRegistry(Config{SnapshotPath: snap})
			if err != nil {
				t.Fatalf("NewRegistry(%s): %v", name, err)
			}
			defer reg.Close()

			for est, probes := range fx.Probes {
				for _, p := range probes {
					got, err := reg.Estimate(est, p.Where)
					if err != nil {
						t.Fatal(err)
					}
					if got != p.Want {
						t.Errorf("%s: Estimate(%q) = %v, want bit-identical %v", est, p.Where, got, p.Want)
					}
				}
				// Old files have no lifecycle section: fresh version store.
				vi, err := reg.Versions(est)
				if err != nil {
					t.Fatal(err)
				}
				if vi.Current.ID != 1 || vi.Current.Origin != "restored" {
					t.Errorf("%s: current version = %+v, want fresh id 1 origin restored", est, vi.Current)
				}
			}

			// Round-trip: persisting upgrades the file to the current format
			// and a rebooted registry still serves the frozen estimates.
			if err := reg.SaveSnapshot(); err != nil {
				t.Fatal(err)
			}
			var upgraded snapshotFile
			raw, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &upgraded); err != nil {
				t.Fatal(err)
			}
			if upgraded.Version != snapshotFileVersion {
				t.Fatalf("saved file version = %d, want %d", upgraded.Version, snapshotFileVersion)
			}
			reg2, err := NewRegistry(Config{SnapshotPath: snap})
			if err != nil {
				t.Fatal(err)
			}
			defer reg2.Close()
			for est, probes := range fx.Probes {
				for _, p := range probes {
					got, err := reg2.Estimate(est, p.Where)
					if err != nil {
						t.Fatal(err)
					}
					if got != p.Want {
						t.Errorf("%s after upgrade: Estimate(%q) = %v, want %v", est, p.Where, got, p.Want)
					}
				}
			}
		})
	}
}

// TestRegistryWALFileRoundTrip boots a registry with a write-ahead log from
// the committed testdata/registry_wal.json — written by an older build's
// registry running with a log — and requires the snapshot it saves to be
// the same bytes: estimator envelopes, lifecycle entries and the log
// watermarks all survive decode and re-encode unchanged.
func TestRegistryWALFileRoundTrip(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "registry_wal.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "state.json")
	if err := os.WriteFile(snap, want, 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(Config{SnapshotPath: snap, WALDir: filepath.Join(dir, "wal")})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-saved registry file differs from the committed bytes:\n%s", got)
	}
}
