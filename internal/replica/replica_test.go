package replica

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"quicksel/internal/wal"
)

// fakePrimary is a scripted /v1/replication/wal endpoint: each round pops
// the next respond function off the script; once the script is exhausted it
// serves the log normally. The log is a dense []wal.Record starting at 1.
type fakePrimary struct {
	mu     sync.Mutex
	log    []wal.Record
	script []func(w http.ResponseWriter, from uint64, p *fakePrimary)
	froms  []uint64 // from parameter of every request, in order
	srv    *httptest.Server
}

func newFakePrimary(t *testing.T, n int) *fakePrimary {
	t.Helper()
	p := &fakePrimary{}
	for i := 1; i <= n; i++ {
		p.log = append(p.log, wal.Record{Type: 1, Seq: uint64(i), Payload: []byte(fmt.Sprintf("rec-%d", i))})
	}
	p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/replication/wal" {
			http.NotFound(w, r)
			return
		}
		from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		p.mu.Lock()
		p.froms = append(p.froms, from)
		var step func(http.ResponseWriter, uint64, *fakePrimary)
		if len(p.script) > 0 {
			step = p.script[0]
			p.script = p.script[1:]
		}
		p.mu.Unlock()
		if step != nil {
			step(w, from, p)
			return
		}
		p.serveNormal(w, from)
	}))
	t.Cleanup(p.srv.Close)
	return p
}

// frames encodes log records [from, upTo] as wire frames.
func (p *fakePrimary) frames(from, upTo uint64) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	var buf []byte
	for _, rec := range p.log {
		if rec.Seq >= from && rec.Seq <= upTo {
			buf = wal.EncodeFrame(buf, rec)
		}
	}
	return buf
}

func (p *fakePrimary) tail() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.log) == 0 {
		return 0
	}
	return p.log[len(p.log)-1].Seq
}

func (p *fakePrimary) serveNormal(w http.ResponseWriter, from uint64) {
	tail := p.tail()
	buf := p.frames(from, tail)
	first, last := uint64(0), uint64(0)
	if len(buf) > 0 {
		first, last = from, tail
	}
	w.Header().Set(HeaderFirst, strconv.FormatUint(first, 10))
	w.Header().Set(HeaderLast, strconv.FormatUint(last, 10))
	w.Header().Set(HeaderTail, strconv.FormatUint(tail, 10))
	w.Write(buf)
}

// sink collects applied records and tracks the resume watermark the way the
// real registry does: next = last applied seq + 1.
type sink struct {
	mu      sync.Mutex
	recs    []wal.Record
	next    uint64
	applyCh chan struct{} // closed once next reaches target
	target  uint64
}

func newSink(target uint64) *sink {
	return &sink{next: 1, target: target, applyCh: make(chan struct{})}
}

func (s *sink) resume() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

func (s *sink) apply(recs []wal.Record, _ uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		if rec.Seq != s.next {
			return fmt.Errorf("sink: got seq %d, want %d", rec.Seq, s.next)
		}
		s.recs = append(s.recs, wal.Record{Type: rec.Type, Seq: rec.Seq, Payload: append([]byte(nil), rec.Payload...)})
		s.next = rec.Seq + 1
	}
	if s.target > 0 && s.next > s.target {
		select {
		case <-s.applyCh:
		default:
			close(s.applyCh)
		}
	}
	return nil
}

// runFetcher starts f.Run in a goroutine and returns a wait-for-exit func.
func runFetcher(t *testing.T, f *Fetcher) func() error {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- f.Run(context.Background()) }()
	t.Cleanup(f.Stop)
	return func() error {
		select {
		case err := <-errCh:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("fetch loop did not exit")
			return nil
		}
	}
}

func waitApplied(t *testing.T, s *sink) {
	t.Helper()
	select {
	case <-s.applyCh:
	case <-time.After(10 * time.Second):
		t.Fatalf("sink never reached seq %d (at %d)", s.target, s.resume())
	}
}

func TestFetcherTailsCleanPrimary(t *testing.T) {
	p := newFakePrimary(t, 25)
	s := newSink(25)
	f, err := NewFetcher(Config{
		PrimaryURL: p.srv.URL,
		FollowerID: "t1",
		Resume:     s.resume,
		Apply:      s.apply,
		PollWait:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFetcher: %v", err)
	}
	f.sleepFn = func(time.Duration) {}
	runFetcher(t, f)
	waitApplied(t, s)

	if len(s.recs) != 25 {
		t.Fatalf("applied %d records, want 25", len(s.recs))
	}
	for i, rec := range s.recs {
		if rec.Seq != uint64(i+1) || string(rec.Payload) != fmt.Sprintf("rec-%d", i+1) {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
	// The round records its counters just after Apply returns; Healthy
	// (the round's success time) is set last.
	st := f.Stats()
	for deadline := time.Now().Add(10 * time.Second); !st.Healthy && time.Now().Before(deadline); st = f.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Lag != 0 || !st.CaughtUp || !st.Healthy {
		t.Fatalf("Stats after catch-up = %+v", st)
	}
	if st.TornResponses != 0 || st.FetchErrors != 0 {
		t.Fatalf("clean tail recorded failures: %+v", st)
	}
}

func TestFetcherKeepsTornPrefixAndResumes(t *testing.T) {
	p := newFakePrimary(t, 10)
	s := newSink(10)
	// First round: a torn response — 4 good frames, the 5th cut mid-frame.
	p.script = []func(http.ResponseWriter, uint64, *fakePrimary){
		func(w http.ResponseWriter, from uint64, p *fakePrimary) {
			good := p.frames(from, from+3)
			torn := p.frames(from+4, from+4)
			w.Header().Set(HeaderTail, strconv.FormatUint(p.tail(), 10))
			w.Write(append(good, torn[:len(torn)-3]...))
		},
	}
	f, err := NewFetcher(Config{
		PrimaryURL: p.srv.URL,
		Resume:     s.resume,
		Apply:      s.apply,
		PollWait:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFetcher: %v", err)
	}
	f.sleepFn = func(time.Duration) {}
	runFetcher(t, f)
	waitApplied(t, s)

	if len(s.recs) != 10 {
		t.Fatalf("applied %d records, want 10", len(s.recs))
	}
	if got := f.Stats().TornResponses; got != 1 {
		t.Fatalf("TornResponses = %d, want 1", got)
	}
	// The round after the torn one must resume at the verified prefix's end
	// (seq 5), not refetch from 1 and not skip ahead.
	p.mu.Lock()
	froms := append([]uint64(nil), p.froms...)
	p.mu.Unlock()
	if len(froms) < 2 || froms[0] != 1 || froms[1] != 5 {
		t.Fatalf("request watermarks = %v, want [1 5 ...]", froms)
	}
}

func TestFetcherCRCCorruptionEndsPrefix(t *testing.T) {
	p := newFakePrimary(t, 6)
	s := newSink(6)
	// First round: 2 good frames, then a frame with a flipped payload byte.
	p.script = []func(http.ResponseWriter, uint64, *fakePrimary){
		func(w http.ResponseWriter, from uint64, p *fakePrimary) {
			buf := p.frames(from, from+2)
			buf[len(buf)-1] ^= 0x01
			w.Header().Set(HeaderTail, strconv.FormatUint(p.tail(), 10))
			w.Write(buf)
		},
	}
	f, err := NewFetcher(Config{
		PrimaryURL: p.srv.URL,
		Resume:     s.resume,
		Apply:      s.apply,
		PollWait:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFetcher: %v", err)
	}
	f.sleepFn = func(time.Duration) {}
	runFetcher(t, f)
	waitApplied(t, s)

	if len(s.recs) != 6 {
		t.Fatalf("applied %d records, want 6", len(s.recs))
	}
	// The corrupt byte must never have reached the sink.
	for i, rec := range s.recs {
		if string(rec.Payload) != fmt.Sprintf("rec-%d", i+1) {
			t.Fatalf("record %d payload = %q", i, rec.Payload)
		}
	}
	if got := f.Stats().TornResponses; got != 1 {
		t.Fatalf("TornResponses = %d, want 1", got)
	}
}

func TestFetcherBackoffOn5xxBurst(t *testing.T) {
	p := newFakePrimary(t, 5)
	s := newSink(5)
	fail := func(w http.ResponseWriter, _ uint64, _ *fakePrimary) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}
	p.script = []func(http.ResponseWriter, uint64, *fakePrimary){fail, fail, fail, fail}

	var mu sync.Mutex
	var sleeps []time.Duration
	f, err := NewFetcher(Config{
		PrimaryURL: p.srv.URL,
		Resume:     s.resume,
		Apply:      s.apply,
		PollWait:   50 * time.Millisecond,
		BackoffMin: 100 * time.Millisecond,
		BackoffMax: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFetcher: %v", err)
	}
	f.sleepFn = func(d time.Duration) {
		mu.Lock()
		sleeps = append(sleeps, d)
		mu.Unlock()
	}
	f.jitterFn = func() float64 { return 0.5 } // deterministic: jittered(d) = 0.75d
	runFetcher(t, f)
	waitApplied(t, s)

	if got := f.Stats().FetchErrors; got != 4 {
		t.Fatalf("FetchErrors = %d, want 4", got)
	}
	mu.Lock()
	defer mu.Unlock()
	// With jitter pinned at 0.5, the sleeps are 0.75 × the exponential
	// envelope 100ms, 200ms, 300ms (capped), 300ms.
	want := []time.Duration{75 * time.Millisecond, 150 * time.Millisecond, 225 * time.Millisecond, 225 * time.Millisecond}
	if len(sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (all: %v)", i, sleeps[i], want[i], sleeps)
		}
	}
}

func TestJitteredBounds(t *testing.T) {
	f := &Fetcher{}
	d := 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		got := f.jittered(d)
		if got < d/2 || got >= d {
			t.Fatalf("jittered(%v) = %v, want in [%v, %v)", d, got, d/2, d)
		}
	}
	// The pinned extremes hit the bounds exactly.
	f.jitterFn = func() float64 { return 0 }
	if got := f.jittered(d); got != d/2 {
		t.Fatalf("jittered with j=0 = %v, want %v", got, d/2)
	}
}

func TestFetcherGapStopsLoop(t *testing.T) {
	p := newFakePrimary(t, 3)
	s := newSink(0)
	p.script = []func(http.ResponseWriter, uint64, *fakePrimary){
		func(w http.ResponseWriter, _ uint64, _ *fakePrimary) {
			http.Error(w, "compacted", http.StatusGone)
		},
	}
	f, err := NewFetcher(Config{
		PrimaryURL: p.srv.URL,
		Resume:     s.resume,
		Apply:      s.apply,
	})
	if err != nil {
		t.Fatalf("NewFetcher: %v", err)
	}
	wait := runFetcher(t, f)
	if err := wait(); !errors.Is(err, ErrGap) {
		t.Fatalf("Run = %v, want ErrGap", err)
	}
	if got := f.Stats().GapResponses; got != 1 {
		t.Fatalf("GapResponses = %d, want 1", got)
	}
}

func TestStopCancelsStalledFetch(t *testing.T) {
	// A primary that accepts the request and then never responds: Stop must
	// cancel the in-flight request, not wait out the client timeout.
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)

	s := newSink(0)
	f, err := NewFetcher(Config{
		PrimaryURL: srv.URL,
		Resume:     s.resume,
		Apply:      s.apply,
		Client:     &http.Client{}, // no timeout: only cancellation can end the request
	})
	if err != nil {
		t.Fatalf("NewFetcher: %v", err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- f.Run(context.Background()) }()
	time.Sleep(100 * time.Millisecond) // let the request reach the stalled handler
	done := make(chan struct{})
	go func() { f.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not cancel the stalled fetch")
	}
	if err := <-errCh; err != nil {
		t.Fatalf("Run after Stop = %v, want nil", err)
	}
}

func TestFetcherUnhealthyAfterSilence(t *testing.T) {
	p := newFakePrimary(t, 2)
	s := newSink(2)
	f, err := NewFetcher(Config{
		PrimaryURL:     p.srv.URL,
		Resume:         s.resume,
		Apply:          s.apply,
		PollWait:       50 * time.Millisecond,
		UnhealthyAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFetcher: %v", err)
	}
	f.sleepFn = func(time.Duration) {}
	runFetcher(t, f)
	waitApplied(t, s)
	f.Stop()

	if st := f.Stats(); !st.Healthy {
		t.Fatalf("Stats right after a round = %+v, want healthy", st)
	}
	time.Sleep(100 * time.Millisecond)
	if st := f.Stats(); st.Healthy {
		t.Fatalf("Stats after silence = %+v, want unhealthy", st)
	}
}

func TestFetchSnapshot(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/replication/snapshot":
			w.Header().Set(HeaderCovered, "7")
			w.Write([]byte("snapshot-bytes"))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	data, found, err := FetchSnapshot(context.Background(), nil, srv.URL)
	if err != nil || !found || string(data) != "snapshot-bytes" {
		t.Fatalf("FetchSnapshot = %q, %v, %v", data, found, err)
	}

	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer empty.Close()
	if _, found, err := FetchSnapshot(context.Background(), nil, empty.URL); err != nil || found {
		t.Fatalf("FetchSnapshot(204) = %v, %v; want not found", found, err)
	}
}
