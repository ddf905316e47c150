// Package replica implements the follower half of quickseld's WAL-shipped
// primary/follower replication: a resumable fetch loop that tails a
// primary's write-ahead log over HTTP and hands the records to a local
// sink (the serving registry, which appends them to its own log and
// applies them, so follower state is bit-identical to the primary's).
//
// # Protocol
//
// The primary serves GET /v1/replication/wal?from=<seq> with a dense run
// of CRC32C frames in the on-disk format (wal.EncodeFrame), capped at its
// durability watermark so unacknowledged records never ship. The request
// long-polls: when the log tail is below from, the primary holds the
// request up to the wait parameter, so a caught-up follower learns about
// new records within one round trip instead of one poll interval. Response
// headers report the shipped range and the primary's durable tail
// (X-Quickseld-Wal-First/-Last/-Tail); the from parameter doubles as the
// follower's acknowledgment — fetching from=N tells the primary everything
// below N is applied, which feeds the primary's semi-sync ack wait and its
// compaction floor.
//
// A 410 (Gone) response means the primary compacted past the follower's
// watermark; the fetch loop stops with ErrGap and the caller re-bootstraps
// from GET /v1/replication/snapshot.
//
// # Fault tolerance
//
// Every response is re-verified frame by frame: a torn or truncated body
// (a proxy cutting the stream, a crashing primary mid-write) yields the
// intact prefix — applied as progress — and the loop refetches the rest.
// A CRC mismatch or sequence discontinuity likewise ends the usable
// prefix. Transport and 5xx errors retry under jittered exponential
// backoff (sleep drawn uniformly from [d/2, d), d doubling from BackoffMin
// to BackoffMax), so a restarting primary is not hammered by its
// followers. The watermark is re-read from the sink every round, so a
// follower resumes exactly where its local log ends, across both round
// failures and process restarts.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quicksel/internal/obs"
	"quicksel/internal/wal"
)

// Replication wire-protocol headers.
const (
	// HeaderFirst and HeaderLast bound the record range in a WAL fetch
	// response body ("0" when the body is empty).
	HeaderFirst = "X-Quickseld-Wal-First"
	HeaderLast  = "X-Quickseld-Wal-Last"
	// HeaderTail reports the primary's durable tail sequence number; the
	// follower's lag is tail minus its applied watermark.
	HeaderTail = "X-Quickseld-Wal-Tail"
	// HeaderPrimary carries the primary's URL on follower 503 responses so
	// redirected clients know where writes go.
	HeaderPrimary = "X-Quickseld-Primary"
	// HeaderCovered reports the covered sequence number of a snapshot
	// bootstrap response.
	HeaderCovered = "X-Quickseld-Wal-Covered"
)

// Defaults for Config fields left zero.
const (
	DefaultPollWait       = 5 * time.Second
	DefaultMaxBatchBytes  = 4 << 20
	DefaultBackoffMin     = 100 * time.Millisecond
	DefaultBackoffMax     = 5 * time.Second
	DefaultUnhealthyAfter = 10 * time.Second
)

// ErrGap reports that the primary has compacted the log past this
// follower's watermark: tailing cannot continue, and the follower must
// re-bootstrap from the primary's snapshot endpoint.
var ErrGap = errors.New("replica: primary compacted past the follower watermark; snapshot re-bootstrap required")

// Config wires a Fetcher to its primary and its local sink.
type Config struct {
	// PrimaryURL is the primary's base URL (e.g. http://10.0.0.1:7075).
	PrimaryURL string
	// FollowerID names this follower to the primary; the primary tracks
	// per-follower fetch watermarks under it for semi-sync acks and the
	// compaction floor.
	FollowerID string

	// Resume returns the next sequence number to fetch — the local log's
	// last sequence plus one. Re-read every round, so partial application
	// advances the watermark and failures rewind nothing.
	Resume func() uint64
	// Apply hands a verified, dense run of records to the local sink along
	// with the primary's durable tail. The sink must make them durable
	// before returning; an error fails the round (the records are refetched
	// after backoff).
	Apply func(recs []wal.Record, primaryTail uint64) error
	// OnStatus, when non-nil, receives the follower's catch-up state after
	// every round — the hook that keeps the registry's replication-lag
	// gauge and readiness probe current.
	OnStatus func(Status)

	// Client issues the fetch requests; nil builds one whose timeout
	// comfortably exceeds PollWait.
	Client *http.Client
	// PollWait is the server-side long-poll duration requested when caught
	// up (default 5s).
	PollWait time.Duration
	// MaxBatchBytes caps one response body (default 4 MiB).
	MaxBatchBytes int
	// BackoffMin and BackoffMax bound the jittered exponential retry
	// backoff (defaults 100ms and 5s).
	BackoffMin, BackoffMax time.Duration
	// UnhealthyAfter is how long the fetcher may go without a successful
	// round before reporting itself unhealthy (default 10s).
	UnhealthyAfter time.Duration

	// Logger receives fetch-loop warnings; nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.PollWait <= 0 {
		c.PollWait = DefaultPollWait
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = DefaultMaxBatchBytes
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = DefaultBackoffMin
	}
	if c.BackoffMax < c.BackoffMin {
		c.BackoffMax = DefaultBackoffMax
		if c.BackoffMax < c.BackoffMin {
			c.BackoffMax = c.BackoffMin
		}
	}
	if c.UnhealthyAfter <= 0 {
		c.UnhealthyAfter = DefaultUnhealthyAfter
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: c.PollWait + 15*time.Second}
	}
	if c.Logger == nil {
		c.Logger = obs.Discard()
	}
	return c
}

// Status is the follower's catch-up state after one fetch round.
type Status struct {
	// Lag is the primary's durable tail minus the follower's applied
	// watermark, as of the last successful round.
	Lag uint64 `json:"lag"`
	// CaughtUp latches true the first time lag reaches zero: the follower
	// has served every record the primary had.
	CaughtUp bool `json:"caught_up"`
	// Healthy is false once UnhealthyAfter has passed without a successful
	// round — the primary is unreachable or persistently failing.
	Healthy bool `json:"healthy"`
}

// Stats snapshots the fetcher's counters.
type Stats struct {
	Fetches       uint64 `json:"fetches"`
	FetchErrors   uint64 `json:"fetch_errors"`
	TornResponses uint64 `json:"torn_responses"`
	GapResponses  uint64 `json:"gap_responses"`
	Records       uint64 `json:"records"`
	Bytes         uint64 `json:"bytes"`
	Lag           uint64 `json:"lag"`
	CaughtUp      bool   `json:"caught_up"`
	Healthy       bool   `json:"healthy"`
	// PrimaryURL is the reachable base URL the primary last stamped on a
	// WAL response (X-Quickseld-Primary, its -advertise-url); empty until
	// a primary that advertises itself answers. A follower's
	// GET /v1/replication/status reports it as advertised_primary.
	PrimaryURL string `json:"advertised_primary,omitempty"`
}

// Fetcher tails one primary's WAL. Build with NewFetcher, drive with Run
// (usually in its own goroutine), and stop with Stop, which cancels the
// in-flight request and waits for Run to return.
type Fetcher struct {
	cfg     Config
	done    chan struct{}
	stopped chan struct{}
	stopO   sync.Once
	log     *slog.Logger

	// Test hooks; the zero values select real time and math/rand.
	sleepFn  func(d time.Duration)
	jitterFn func() float64

	fetches, fetchErrs, torn, gaps, records, bytes atomic.Uint64
	lag                                            atomic.Uint64
	caughtUp                                       atomic.Bool
	lastOK                                         atomic.Int64           // unix nanos of the last successful round
	primaryURL                                     atomic.Pointer[string] // last X-Quickseld-Primary seen
}

// NewFetcher builds a fetcher; Config.Resume and Config.Apply are required.
func NewFetcher(cfg Config) (*Fetcher, error) {
	if cfg.PrimaryURL == "" {
		return nil, fmt.Errorf("replica: Config.PrimaryURL is required")
	}
	if cfg.Resume == nil || cfg.Apply == nil {
		return nil, fmt.Errorf("replica: Config.Resume and Config.Apply are required")
	}
	return &Fetcher{
		cfg:     cfg.withDefaults(),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
		log:     cfg.withDefaults().Logger,
	}, nil
}

// Stop cancels the in-flight fetch and blocks until Run has returned. Safe
// to call more than once; a no-op if Run already exited.
func (f *Fetcher) Stop() {
	f.stopO.Do(func() { close(f.done) })
	<-f.stopped
}

// Stats snapshots the fetcher's counters and catch-up state.
func (f *Fetcher) Stats() Stats {
	st := f.status()
	return Stats{
		Fetches:       f.fetches.Load(),
		FetchErrors:   f.fetchErrs.Load(),
		TornResponses: f.torn.Load(),
		GapResponses:  f.gaps.Load(),
		Records:       f.records.Load(),
		Bytes:         f.bytes.Load(),
		Lag:           st.Lag,
		CaughtUp:      st.CaughtUp,
		Healthy:       st.Healthy,
		PrimaryURL:    f.PrimaryURL(),
	}
}

// PrimaryURL reports the primary's self-advertised base URL, learned from
// the X-Quickseld-Primary header on WAL responses ("" until seen).
func (f *Fetcher) PrimaryURL() string {
	if p := f.primaryURL.Load(); p != nil {
		return *p
	}
	return ""
}

func (f *Fetcher) status() Status {
	ok := f.lastOK.Load()
	return Status{
		Lag:      f.lag.Load(),
		CaughtUp: f.caughtUp.Load(),
		Healthy:  ok > 0 && time.Since(time.Unix(0, ok)) <= f.cfg.UnhealthyAfter,
	}
}

// Run drives the fetch loop until Stop is called (returns nil), the
// context is canceled (returns the context error), or the primary reports
// a compaction gap (returns ErrGap; the caller must re-bootstrap from a
// snapshot). Transport errors, 5xx bursts, and torn responses are retried
// internally under jittered exponential backoff and never end the loop.
func (f *Fetcher) Run(ctx context.Context) error {
	defer close(f.stopped)
	backoff := f.cfg.BackoffMin
	for {
		select {
		case <-f.done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		progressed, err := f.round(ctx)
		if f.cfg.OnStatus != nil {
			f.cfg.OnStatus(f.status())
		}
		switch {
		case errors.Is(err, ErrGap):
			return ErrGap
		case err != nil:
			select {
			case <-f.done:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
			f.fetchErrs.Add(1)
			f.log.Warn("replication fetch failed; backing off",
				slog.Any("error", err), slog.Duration("backoff", backoff))
			f.sleep(f.jittered(backoff))
			backoff *= 2
			if backoff > f.cfg.BackoffMax {
				backoff = f.cfg.BackoffMax
			}
		case !progressed && f.lag.Load() > 0:
			// Defensive: a successful but empty round while behind (the
			// primary returned 200 with no records below its tail) must not
			// spin hot. Should not happen with a correct primary.
			f.sleep(f.jittered(f.cfg.BackoffMin))
		default:
			backoff = f.cfg.BackoffMin
			// No sleep: the server-side long poll paces a caught-up loop.
		}
	}
}

// round performs one fetch: request, verify, apply. It reports whether any
// records were applied.
func (f *Fetcher) round(ctx context.Context) (progressed bool, err error) {
	from := f.cfg.Resume()
	u := fmt.Sprintf("%s/v1/replication/wal?from=%d&follower=%s&wait=%s&max_bytes=%d",
		strings.TrimSuffix(f.cfg.PrimaryURL, "/"), from,
		url.QueryEscape(f.cfg.FollowerID), f.cfg.PollWait, f.cfg.MaxBatchBytes)
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() { // Stop cancels the in-flight request, not just the loop.
		select {
		case <-f.done:
			cancel()
		case <-rctx.Done():
		}
	}()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	f.fetches.Add(1)
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		f.gaps.Add(1)
		return false, ErrGap
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return false, fmt.Errorf("primary returned %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, int64(f.cfg.MaxBatchBytes)+wal.MaxPayload))
	if err != nil {
		return false, fmt.Errorf("read response: %w", err)
	}
	f.bytes.Add(uint64(len(body)))
	tail, _ := strconv.ParseUint(resp.Header.Get(HeaderTail), 10, 64)
	if adv := resp.Header.Get(HeaderPrimary); adv != "" {
		f.primaryURL.Store(&adv)
	}

	// Verify the body frame by frame: CRC, length, and the dense sequence
	// run starting exactly at from. The verified prefix is applied; a torn
	// or corrupt tail is dropped and refetched next round.
	var recs []wal.Record
	data, expect, torn := body, from, false
	for len(data) > 0 {
		rec, n, derr := wal.DecodeFrame(data)
		if derr != nil || rec.Seq != expect {
			torn = true
			break
		}
		recs = append(recs, rec)
		expect++
		data = data[n:]
	}
	if torn {
		f.torn.Add(1)
		f.log.Warn("torn replication response; keeping verified prefix",
			slog.Uint64("from", from), slog.Int("verified", len(recs)), slog.Int("dropped_bytes", len(data)))
	}
	if len(recs) > 0 {
		if err := f.cfg.Apply(recs, tail); err != nil {
			return false, fmt.Errorf("apply: %w", err)
		}
		f.records.Add(uint64(len(recs)))
	}
	applied := expect - 1
	lag := uint64(0)
	if tail > applied {
		lag = tail - applied
	}
	f.lag.Store(lag)
	if lag == 0 {
		f.caughtUp.Store(true)
	}
	f.lastOK.Store(time.Now().UnixNano())
	if torn && len(recs) == 0 {
		// Nothing usable arrived: treat as a round failure so backoff kicks
		// in instead of hammering a source that keeps sending garbage.
		return false, fmt.Errorf("response carried no verifiable frames")
	}
	return len(recs) > 0, nil
}

// jittered draws a sleep uniformly from [d/2, d): backoff retains its
// exponential envelope while concurrent followers decorrelate.
func (f *Fetcher) jittered(d time.Duration) time.Duration {
	j := f.jitterFn
	if j == nil {
		j = rand.Float64
	}
	return d/2 + time.Duration(float64(d/2)*j())
}

// sleep waits d or until Stop, whichever comes first.
func (f *Fetcher) sleep(d time.Duration) {
	if f.sleepFn != nil {
		f.sleepFn(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-f.done:
	}
}

// FetchSnapshot bootstraps from the primary's snapshot endpoint. It
// returns the snapshot file bytes, or found=false when the primary has no
// snapshot configured (the follower then starts empty and tails from
// sequence 1).
func FetchSnapshot(ctx context.Context, client *http.Client, primaryURL string) (data []byte, found bool, err error) {
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	u := strings.TrimSuffix(primaryURL, "/") + "/v1/replication/snapshot"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, false, fmt.Errorf("replica: read snapshot: %w", err)
		}
		return data, true, nil
	case http.StatusNoContent:
		return nil, false, nil
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, false, fmt.Errorf("replica: snapshot bootstrap: primary returned %s: %s", resp.Status, body)
	}
}
