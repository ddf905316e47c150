package server

import (
	"net/http"
	"strings"

	"quicksel/internal/obs"
)

// clampSub returns a-b, clamped at zero. The watermark gauges subtract two
// counters sampled without a common lock, so the subtrahend can be read
// momentarily ahead of the minuend; unguarded uint64 subtraction would wrap
// that transient into a ~2^64 lag spike.
func clampSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// handleMetrics renders the daemon's operational state in the Prometheus
// text exposition format (hand-rolled; the format is three trivial line
// shapes and pulling in a client library for it would be the only external
// dependency in the repository). The families come from the same collect()
// snapshot GET /v1/telemetry serves as JSON, plus the process-level build
// and runtime gauges that are meaningless to federate.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	t := s.collect()
	t.WritePrometheus(&b)
	obs.WriteRuntimeMetrics(&b, "quickseld")

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
