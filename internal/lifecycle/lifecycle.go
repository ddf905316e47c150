// Package lifecycle is the model-lifecycle machinery between the training
// path and the serving slot: it decides when a learned selectivity model has
// gone stale and whether a freshly trained replacement deserves to serve.
//
// QuickSel's premise (and that of the query-driven baselines — ISOMER,
// STHoles) is that the model learns continuously from query feedback. A
// serving system cannot take that loop on faith: a burst of skewed feedback
// — a workload shift, bad statistics, an adversarial client — silently
// degrades an unconditionally-swapped model with no detection, no history,
// and no way back. The package supplies the three missing pieces:
//
//   - Tracker: a ring-buffered rolling window of (estimate, observed-actual)
//     pairs fed from the observe path, exposing windowed MAE / q-error and a
//     Page–Hinkley drift detector over the realized absolute error.
//   - Store: immutable numbered model versions with metadata (origin,
//     observation count, window accuracy at creation) in a bounded history,
//     with explicit rollback.
//   - Shadow: the promotion gate's scoring rule — a freshly trained
//     challenger is compared against the serving champion on a held-out tail
//     of the feedback batch and promoted only if it wins.
//
// The package is deliberately free of model types: trackers speak floats,
// versions carry opaque JSON payloads, and the gate scores plain estimate
// slices. The public quicksel package embeds a Tracker per estimator; the
// serving registry (internal/server) owns the full loop — observe → track →
// drift → retrain → shadow → promote/rollback — and persists every piece in
// its snapshot file.
package lifecycle

import (
	"fmt"
	"math"
)

// Policy controls how a freshly trained challenger model becomes the serving
// model.
type Policy string

const (
	// PolicyAlways swaps every successfully trained challenger in
	// unconditionally — the pre-lifecycle behaviour, and the default.
	PolicyAlways Policy = "always"
	// PolicyNever never swaps automatically: every trained challenger is
	// recorded as a version but the serving model only changes through an
	// explicit rollback (which doubles as manual promotion).
	PolicyNever Policy = "never"
	// PolicyShadow scores the challenger against the serving champion on a
	// held-out tail of the feedback batch and promotes only a winner; losers
	// are archived as rejected versions.
	PolicyShadow Policy = "shadow"
)

// Policies returns the valid policy names in definition order.
func Policies() []string {
	return []string{string(PolicyAlways), string(PolicyNever), string(PolicyShadow)}
}

// ParsePolicy validates a policy name; "" selects PolicyAlways.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "", PolicyAlways:
		return PolicyAlways, nil
	case PolicyNever:
		return PolicyNever, nil
	case PolicyShadow:
		return PolicyShadow, nil
	default:
		return "", fmt.Errorf("lifecycle: unknown retrain policy %q (valid policies: %v)", s, Policies())
	}
}

// Defaults for Config fields left zero.
const (
	// DefaultWindow is the accuracy ring capacity.
	DefaultWindow = 256
	// DefaultDriftThreshold is the Page–Hinkley alarm threshold λ on the
	// cumulative deviation of the absolute estimate error. Selectivities live
	// in [0, 1], so 0.25 means the error mass has run a quarter of the domain
	// above its running mean since the healthiest point of the window.
	DefaultDriftThreshold = 0.25
	// DefaultHistory bounds the version store.
	DefaultHistory = 4
	// driftDelta is the Page–Hinkley tolerance δ: per-sample error
	// excursions below δ never accumulate toward the alarm.
	driftDelta = 0.005
	// driftMinSamples is the number of tracked samples before the detector
	// may alarm; Page–Hinkley needs a settled running mean.
	driftMinSamples = 8
	// shadowFraction is the share of a training batch held out for
	// champion/challenger scoring under PolicyShadow.
	shadowFraction = 0.25
)

// Config tunes the lifecycle machinery. The zero value of every field
// selects a sensible default, so the zero Config is the pre-lifecycle
// behaviour (always-promote) with tracking on.
type Config struct {
	// Policy is the promotion policy; "" means PolicyAlways.
	Policy Policy `json:"policy,omitempty"`
	// Window is the accuracy ring capacity (default 256).
	Window int `json:"window,omitempty"`
	// DriftThreshold is the Page–Hinkley alarm threshold λ (default 0.25).
	// A negative value disables drift detection (+Inf also works but cannot
	// be JSON-persisted).
	DriftThreshold float64 `json:"drift_threshold,omitempty"`
	// History bounds the version store (default 4).
	History int `json:"history,omitempty"`
}

// WithDefaults returns the config with every zero field replaced by its
// package default.
func (c Config) WithDefaults() Config {
	if c.Policy == "" {
		c.Policy = PolicyAlways
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = DefaultDriftThreshold
	}
	if c.History <= 0 {
		c.History = DefaultHistory
	}
	return c
}

// Merge returns c with every non-zero field of override applied on top; the
// serving registry uses it to layer per-estimator options over daemon-wide
// defaults.
func (c Config) Merge(override Config) Config {
	if override.Policy != "" {
		c.Policy = override.Policy
	}
	if override.Window > 0 {
		c.Window = override.Window
	}
	if override.DriftThreshold != 0 {
		c.DriftThreshold = override.DriftThreshold
	}
	if override.History > 0 {
		c.History = override.History
	}
	return c
}

// qErrorFloor keeps the q-error finite for empty predicates: estimates and
// actuals are floored to this selectivity before taking the ratio, the
// usual "one row out of a large table" convention.
const qErrorFloor = 1e-6

// QError is the multiplicative error max(est/actual, actual/est) with both
// sides floored to qErrorFloor — the accuracy measure of the paper's
// evaluation (§5.1) and the gate's scoring loss.
func QError(estimate, actual float64) float64 {
	if estimate < qErrorFloor {
		estimate = qErrorFloor
	}
	if actual < qErrorFloor {
		actual = qErrorFloor
	}
	if estimate > actual {
		return estimate / actual
	}
	return actual / estimate
}

// Metrics summarizes realized accuracy over a sample window.
type Metrics struct {
	// Samples is the number of (estimate, actual) pairs summarized.
	Samples int `json:"samples"`
	// MAE is the mean absolute error on selectivity in [0, 1].
	MAE float64 `json:"mae"`
	// MeanQError and MaxQError are the mean and worst multiplicative errors.
	MeanQError float64 `json:"mean_qerror"`
	MaxQError  float64 `json:"max_qerror"`
}

// Summarize computes window metrics over paired estimate/actual slices.
func Summarize(estimates, actuals []float64) Metrics {
	n := len(estimates)
	if len(actuals) < n {
		n = len(actuals)
	}
	if n == 0 {
		return Metrics{}
	}
	m := Metrics{Samples: n}
	for i := 0; i < n; i++ {
		m.MAE += math.Abs(estimates[i] - actuals[i])
		q := QError(estimates[i], actuals[i])
		m.MeanQError += q
		if q > m.MaxQError {
			m.MaxQError = q
		}
	}
	m.MAE /= float64(n)
	m.MeanQError /= float64(n)
	return m
}
