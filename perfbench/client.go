package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// client is one HTTP connection: each client's transport keeps at most one
// connection open, so the number of clients is the number of connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// tally counts attempted and failed operations. A failure is a transport
// error, a non-2xx status (refusals included) or a wrong answer.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	first     []string
}

func (t *tally) ok() { t.attempted.Add(1) }

// note keeps a failure message for the report.
func (t *tally) note(msg string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.first) < 5 {
		t.first = append(t.first, msg)
	}
}

func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.note(fmt.Sprintf(format, args...))
}

// expect records one operation: ok when it returned the status want,
// failed otherwise.
func (t *tally) expect(what string, want, status int, body []byte, err error) bool {
	switch {
	case err != nil:
		t.fail("%s: %v", what, err)
	case status != want:
		t.fail("%s: status %d: %s", what, status, bytes.TrimSpace(body))
	default:
		t.ok()
		return true
	}
	return false
}

// prepared is one read of the pool as an HTTP request.
type prepared struct {
	method string
	path   string
	body   []byte
}

func prepareReads(in *inputs) []prepared {
	out := make([]prepared, len(in.Reads))
	for i, r := range in.Reads {
		name := in.Ests[r.Est].Name
		if in.Batch {
			body, _ := json.Marshal(map[string]any{"wheres": r.Wheres})
			out[i] = prepared{http.MethodPost, "/v1/" + name + "/estimate/batch", body}
		} else {
			out[i] = prepared{http.MethodGet, "/v1/" + name + "/estimate?where=" + url.QueryEscape(r.Wheres[0]), nil}
		}
	}
	return out
}

// decodeReadAnswer extracts the selectivities of an estimate or batch
// response.
func decodeReadAnswer(batch bool, body []byte) ([]float64, error) {
	if batch {
		var r struct {
			Selectivities []float64 `json:"selectivities"`
		}
		err := json.Unmarshal(body, &r)
		return r.Selectivities, err
	}
	var r struct {
		Selectivity *float64 `json:"selectivity"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	if r.Selectivity == nil {
		return nil, fmt.Errorf("no selectivity in %q", body)
	}
	return []float64{*r.Selectivity}, nil
}

// checkRead validates one read's answers: bit-identical to want when the
// control knows them, else within [0, 1].
func checkRead(got, want []float64, n int) error {
	if len(got) != n {
		return fmt.Errorf("%d answers for %d clauses", len(got), n)
	}
	for i, g := range got {
		if want != nil {
			if math.Float64bits(g) != math.Float64bits(want[i]) {
				return fmt.Errorf("clause %d: %v, control %v", i, g, want[i])
			}
		} else if !(g >= 0 && g <= 1) {
			return fmt.Errorf("clause %d: %v outside [0, 1]", i, g)
		}
	}
	return nil
}

// sample is one timed request: its latency and when it completed, relative
// to the start of the timed phase.
type sample struct {
	lat  time.Duration
	done time.Duration
}

// closedLoop drives the read pool (reqs, prepared from in) from len(conns)
// callers, each sending
// its next request only after the previous answer arrived. Each caller
// first sends warmup untimed requests; the timed phase then starts for all
// callers at once — onStart is told when — and lasts until stop is closed
// or dur elapses. want[i] holds the expected answers of read i (nil:
// range-check only).
func closedLoop(conns []*client, in *inputs, reqs []prepared, want [][]float64,
	warmup int, dur time.Duration, stop <-chan struct{}, t *tally, onStart func(time.Time)) (samples []sample, elapsed time.Duration) {
	var wg sync.WaitGroup
	warmed := make(chan struct{}, len(conns))
	start := make(chan time.Time)
	per := make([][]sample, len(conns))
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			i := ci * len(reqs) / len(conns)
			send := func() time.Duration {
				k := i % len(reqs)
				i++
				r := reqs[k]
				t0 := time.Now()
				status, body, err := c.do(r.method, r.path, r.body)
				lat := time.Since(t0)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
				}
				if err == nil {
					var got []float64
					if got, err = decodeReadAnswer(in.Batch, body); err == nil {
						var w []float64
						if want != nil {
							w = want[k]
						}
						err = checkRead(got, w, len(in.Reads[k].Wheres))
					}
				}
				if err != nil {
					t.fail("read %s: %v", r.path, err)
				} else {
					t.ok()
				}
				return lat
			}
			for n := 0; n < warmup; n++ {
				send()
			}
			warmed <- struct{}{}
			t0 := <-start
			deadline := t0.Add(dur)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !time.Now().Before(deadline) {
					return
				}
				lat := send()
				per[ci] = append(per[ci], sample{lat: lat, done: time.Since(t0)})
			}
		}(ci, c)
	}
	for range conns {
		<-warmed
	}
	t0 := time.Now()
	if onStart != nil {
		onStart(t0)
	}
	for range conns {
		start <- t0
	}
	wg.Wait()
	elapsed = time.Since(t0)
	for _, s := range per {
		samples = append(samples, s...)
	}
	return samples, elapsed
}

// sleepUntil waits for the due time: a timer sleep to shortly before it,
// then a yielding spin, so the open-loop writer is not late by the ~0.1–1 ms
// overshoot of a plain sleep.
func sleepUntil(due time.Time) {
	if d := time.Until(due) - 500*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}
