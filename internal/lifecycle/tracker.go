package lifecycle

import "math"

// Sample is one realized-accuracy record: the selectivity the serving model
// estimated for a predicate and the actual selectivity later observed for
// it.
type Sample struct {
	Estimate float64 `json:"estimate"`
	Actual   float64 `json:"actual"`
}

// Tracker is the rolling accuracy window plus a Page–Hinkley drift detector
// over the realized absolute error. It is fed from the observe path: each
// feedback record is first answered by the current serving model, and the
// (estimate, actual) pair becomes one sample.
//
// The Page–Hinkley test watches the cumulative deviation of the error above
// its running mean, m_t = Σ(x_i − x̄_i − δ), and alarms when m_t rises more
// than λ above its historical minimum — i.e. when the error has been
// persistently worse than its own history, not merely noisy. δ is the
// package constant driftDelta; λ comes from Config.DriftThreshold.
//
// A Tracker is not safe for concurrent use; callers (the public Estimator,
// the serving registry) hold their own locks.
type Tracker struct {
	cfg Config

	ring []Sample // capacity cfg.Window
	head int      // next write position
	n    int      // samples currently held (≤ len(ring))

	// Page–Hinkley state over the absolute error.
	phN     int     // samples since the last reset
	phMean  float64 // running mean of the error
	phM     float64 // cumulative deviation m_t
	phMin   float64 // historical minimum of m_t
	drifted bool    // alarm latched until ResetDrift
	events  uint64  // alarms raised since creation
}

// NewTracker builds a tracker; zero cfg fields take package defaults.
func NewTracker(cfg Config) *Tracker {
	cfg = cfg.WithDefaults()
	return &Tracker{cfg: cfg, ring: make([]Sample, cfg.Window)}
}

// Config returns the tracker's resolved configuration.
func (t *Tracker) Config() Config { return t.cfg }

// Add records one realized-accuracy sample and steps the drift detector. It
// returns true when this sample raises the drift alarm (a transition, not
// the latched state; see Drifted).
func (t *Tracker) Add(estimate, actual float64) bool {
	if math.IsNaN(estimate) || math.IsNaN(actual) {
		return false
	}
	t.ring[t.head] = Sample{Estimate: estimate, Actual: actual}
	t.head = (t.head + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}

	if t.cfg.DriftThreshold < 0 || math.IsInf(t.cfg.DriftThreshold, 1) {
		return false
	}
	x := math.Abs(estimate - actual)
	t.phN++
	t.phMean += (x - t.phMean) / float64(t.phN)
	t.phM += x - t.phMean - driftDelta
	if t.phM < t.phMin {
		t.phMin = t.phM
	}
	if t.phN >= driftMinSamples && !t.drifted && t.phM-t.phMin > t.cfg.DriftThreshold {
		t.drifted = true
		t.events++
		return true
	}
	return false
}

// Len returns the number of samples currently in the window.
func (t *Tracker) Len() int { return t.n }

// Samples returns the window's samples, oldest first.
func (t *Tracker) Samples() []Sample {
	out := make([]Sample, 0, t.n)
	start := t.head - t.n
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i+len(t.ring))%len(t.ring)])
	}
	return out
}

// Drifted reports whether the drift alarm is latched (raised and not yet
// acknowledged by ResetDrift).
func (t *Tracker) Drifted() bool { return t.drifted }

// ResetDrift acknowledges a drift alarm and restarts the detector, keeping
// the sample window. Call it after the response to drift — a retrain, a
// promotion, a rollback — so the new model is judged on fresh statistics.
func (t *Tracker) ResetDrift() {
	t.phN, t.phMean, t.phM, t.phMin = 0, 0, 0, 0
	t.drifted = false
}

// Report summarizes the tracker: window accuracy plus drift-detector state.
type Report struct {
	// Window is the ring capacity; Samples ≤ Window are currently held.
	Window int `json:"window"`
	Metrics
	// Drifted is the latched alarm state; DriftEvents counts alarms raised
	// since creation.
	Drifted     bool   `json:"drifted"`
	DriftEvents uint64 `json:"drift_events"`
	// DriftStat is the Page–Hinkley statistic m_t − min(m_t); the alarm
	// fires when it exceeds DriftThreshold.
	DriftStat      float64 `json:"drift_statistic"`
	DriftThreshold float64 `json:"drift_threshold"`
}

// Report computes the current accuracy/drift summary.
func (t *Tracker) Report() Report {
	var est, act []float64
	for _, s := range t.Samples() {
		est = append(est, s.Estimate)
		act = append(act, s.Actual)
	}
	return Report{
		Window:         len(t.ring),
		Metrics:        Summarize(est, act),
		Drifted:        t.drifted,
		DriftEvents:    t.events,
		DriftStat:      t.phM - t.phMin,
		DriftThreshold: t.cfg.DriftThreshold,
	}
}

// TrackerState is the serializable state of a Tracker, persisted inside
// snapshot envelopes so a restarted process resumes accuracy tracking where
// it left off.
type TrackerState struct {
	Samples []Sample `json:"samples,omitempty"`
	PHCount int      `json:"ph_count,omitempty"`
	PHMean  float64  `json:"ph_mean,omitempty"`
	PHM     float64  `json:"ph_m,omitempty"`
	PHMin   float64  `json:"ph_min,omitempty"`
	Drifted bool     `json:"drifted,omitempty"`
	Events  uint64   `json:"events,omitempty"`
}

// State exports the tracker for persistence.
func (t *Tracker) State() *TrackerState {
	return &TrackerState{
		Samples: t.Samples(),
		PHCount: t.phN,
		PHMean:  t.phMean,
		PHM:     t.phM,
		PHMin:   t.phMin,
		Drifted: t.drifted,
		Events:  t.events,
	}
}

// RestoreTracker rebuilds a tracker from persisted state; a nil state yields
// a fresh tracker.
func RestoreTracker(cfg Config, s *TrackerState) *Tracker {
	t := NewTracker(cfg)
	if s == nil {
		return t
	}
	samples := s.Samples
	if len(samples) > len(t.ring) {
		samples = samples[len(samples)-len(t.ring):] // keep the newest
	}
	for _, sm := range samples {
		t.ring[t.head] = sm
		t.head = (t.head + 1) % len(t.ring)
		if t.n < len(t.ring) {
			t.n++
		}
	}
	t.phN = s.PHCount
	t.phMean = s.PHMean
	t.phM = s.PHM
	t.phMin = s.PHMin
	t.drifted = s.Drifted
	t.events = s.Events
	return t
}
