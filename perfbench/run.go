package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// report is what one run measured.
type report struct {
	metrics []metric
	// printed are metrics shown by name but left out of the result object.
	// On a shared 2-CPU host their run-to-run spread reaches past the
	// widest regression bound the result may carry: tails and the short
	// set-up calls swing most when a neighbour loads the machine.
	printed []metric
	flags   map[string][]string
	procs   int // processes the run started, the load generator excluded
	conns   int // load connections open while timing
	t       *tally
}

type metric struct {
	name  string
	unit  string
	value float64
	note  string // sample counts and how the value was taken
}

// runE2E is the untraced run: real processes on loopback, every answer
// checked, end-to-end metrics only. The timed phase is split evenly over
// the workload's set-ups: each starts fresh processes, replays the same
// traffic for its share of the run and is stopped. One set of processes
// runs faster or slower than the next by more than a run's sampling error —
// on a 2-CPU host the read p50s of nine point-small set-ups in one run
// spread from 82 to 108 us — so a run reports values over its set-ups:
// setup_s and rss_mb as medians, read latency and throughput as means
// without the fastest and the slowest set-up. Over ten runs the trimmed
// mean of read_p50_us spread 0.08 of its median on ingest-mixed and 0.15
// on router-point, the median of set-ups 0.11 and 0.17.
func runE2E(w *workloadDef, in *inputs, o options) (*report, error) {
	t := &tally{}
	ctls, err := setupControls(in)
	if err != nil {
		return nil, err
	}
	var want [][]float64
	if in.Writer == nil {
		// The served model is fixed while reads are timed, so every timed
		// read has a known right answer.
		if want, err = readAnswers(in, ctls); err != nil {
			return nil, err
		}
	}
	reqs := prepareReads(in)

	var (
		setupDur   []float64
		readP50    []float64
		readRate   []float64
		rssMB      []float64
		reads      []float64 // read latencies of every set-up, in completion order
		feedLat    []time.Duration
		setupTrain []time.Duration
		writers    writerResult // the timings of every set-up's writer
		qerrs      []float64
		flags      map[string][]string
		procs      int
	)
	for rep := 0; rep < w.setups; rep++ {
		t0 := time.Now()
		cl, err := startCluster(w, o.bin, filepath.Join(o.work, fmt.Sprintf("%d-%d", os.Getpid(), rep)))
		if err != nil {
			return nil, err
		}
		flags, procs = cl.flags(), len(cl.procs)
		setup, busy := newClient(cl.front.base), newClient(cl.front.base)
		fl, tr, points := setUp(setup, busy, in, reqs, t)
		busy.close()
		setup.close()
		feedLat, setupTrain = append(feedLat, fl...), append(setupTrain, tr...)

		conns := make([]*client, w.callers)
		for i := range conns {
			conns[i] = newClient(cl.front.base)
		}
		dur := w.slice(o.seconds)
		var stop chan struct{}
		if in.Writer != nil {
			// The reader runs for as long as the writer's schedule does.
			stop = make(chan struct{})
			dur = 24 * time.Hour
		}
		var wr writerResult
		var writerDone sync.WaitGroup
		onStart := func(start time.Time) {
			setupDur = append(setupDur, start.Sub(t0).Seconds())
			if in.Writer == nil {
				return
			}
			writer := newClient(cl.front.base)
			writerDone.Add(1)
			go func() {
				defer writerDone.Done()
				defer close(stop)
				defer writer.close()
				wr = runWriter(writer, in, start, t)
			}()
		}
		samples, elapsed := closedLoop(conns, in, reqs, want, w.warmup, dur, stop, t, onStart)
		writerDone.Wait()
		for _, c := range conns {
			c.close()
		}
		rss := cl.stop()

		sort.Slice(samples, func(i, j int) bool { return samples[i].done < samples[j].done })
		rl := micros(latencies(samples))
		reads = append(reads, rl...)
		readP50 = append(readP50, quantile(rl, 0.5))
		readRate = append(readRate, float64(len(rl))/elapsed.Seconds())
		rssMB = append(rssMB, float64(rss)/1024)
		writers.writes = append(writers.writes, wr.writes...)
		writers.lates = append(writers.lates, wr.lates...)
		writers.trains = append(writers.trains, wr.trains...)
		// Every set-up starts from the same state and replays the same
		// traffic, so its q-errors repeat the other set-ups'.
		if qerrs, err = checkSetUp(in, ctls, points, wr, t); err != nil {
			return nil, err
		}
	}

	writeLat, writeNote := feedLat, "set-up feedback, single-observation requests, closed loop"
	trainLat, trainNote := setupTrain, "set-up train calls"
	if in.Writer != nil {
		writeLat, writeNote = writers.writes, fmt.Sprintf("open loop from the scheduled send time; generator lateness p50 %.1f us, p99 %.1f us",
			quantile(micros(writers.lates), 0.5), quantile(micros(writers.lates), 0.99))
		trainLat, trainNote = writers.trains, "train points of the timed writers"
	}
	wl := micros(writeLat)
	r99, rChunks := tail(reads, 0.99)
	w99, wChunks := tail(wl, 0.99)
	rep := &report{t: t, flags: flags, procs: procs, conns: w.callers}
	if in.Writer != nil {
		rep.conns++
	}
	rep.metrics = []metric{
		{"setup_s", "s", median(setupDur), fmt.Sprintf("median of %d set-ups %v", len(setupDur), roundAll(setupDur, 3))},
		{"read_p50_us", "us", trimmedMean(readP50), fmt.Sprintf("trimmed mean of %d set-ups' p50s %v, n=%d", len(readP50), roundAll(readP50, 1), len(reads))},
		{"read_qps", "1/s", trimmedMean(readRate), fmt.Sprintf("trimmed mean of %d set-ups %v, %d callers", len(readRate), roundAll(readRate, 0), w.callers)},
		{"qerror_p50", "ratio", quantile(qerrs, 0.5), fmt.Sprintf("n=%d scoring answers", len(qerrs))},
		{"qerror_p95", "ratio", quantile(qerrs, 0.95), fmt.Sprintf("n=%d", len(qerrs))},
		{"rss_mb", "MB", median(rssMB), fmt.Sprintf("median of %d set-ups of the peak RSS summed over %d processes", len(rssMB), procs)},
	}
	rep.printed = []metric{
		{"read_p99_us", "us", r99, tailNote(len(reads), rChunks)},
		{"train_p50_ms", "ms", median(millis(trainLat)), fmt.Sprintf("n=%d, %s", len(trainLat), trainNote)},
		{"write_p50_us", "us", quantile(append([]float64(nil), wl...), 0.5), fmt.Sprintf("n=%d, %s", len(wl), writeNote)},
		{"write_p99_us", "us", w99, tailNote(len(wl), wChunks)},
	}
	return rep, nil
}

// checkSetUp compares one set-up's scoring answers with the controls' and
// returns their q-errors. With a writer the model changed during the
// set-up, so fresh controls replay the observations the daemon
// acknowledged, training at the same points.
func checkSetUp(in *inputs, ctls []*control, points []scoringPoint, wr writerResult, t *tally) ([]float64, error) {
	if in.Writer == nil {
		return verify(in, ctls, points, func(int) error { return nil }, t)
	}
	ctls, err := setupControls(in)
	if err != nil {
		return nil, err
	}
	cur := 0
	advance := func(step int) error {
		for ; cur < step; cur++ {
			ctls[in.Writer.Est].observe(wr.acked[cur]...)
			if err := ctls[in.Writer.Est].train(); err != nil {
				return err
			}
		}
		return nil
	}
	return verify(in, ctls, append(points, wr.points...), advance, t)
}

// setUp creates the estimators, sends the seed feedback one observation
// per request, trains synchronously and asks for the scoring sets. It
// returns the observe and train latencies and the scoring answers.
//
// While the feedback is sent, the busy connection reads estimates from the
// still untrained models in a closed loop, so the daemon is never idle
// between two writes: a lone sequential writer mostly measures how fast an
// idle CPU wakes up, which varies from run to run far more than the work.
func setUp(c, busy *client, in *inputs, reqs []prepared, t *tally) (feed, train []time.Duration, points []scoringPoint) {
	for _, spec := range in.Ests {
		status, body, err := c.do(http.MethodPost, "/v1/estimators", spec.createBody())
		t.expect("create "+spec.Name, http.StatusCreated, status, body, err)
	}
	stop := make(chan struct{})
	var reading sync.WaitGroup
	reading.Add(1)
	go func() {
		defer reading.Done()
		closedLoop([]*client{busy}, in, reqs, nil, 0, 24*time.Hour, stop, t, nil)
	}()
	for _, spec := range in.Ests {
		path := "/v1/" + spec.Name + "/observe"
		for _, o := range spec.Feedback {
			b, _ := json.Marshal(o)
			t0 := time.Now()
			status, body, err := c.do(http.MethodPost, path, b)
			feed = append(feed, time.Since(t0))
			if t.expect("observe "+spec.Name, http.StatusAccepted, status, body, err) {
				checkAck(body, 1, spec.Name, t)
			}
		}
	}
	close(stop)
	reading.Wait()
	for _, spec := range in.Ests {
		t0 := time.Now()
		status, body, err := c.do(http.MethodPost, "/v1/"+spec.Name+"/train", nil)
		train = append(train, time.Since(t0))
		t.expect("train "+spec.Name, http.StatusOK, status, body, err)
	}
	for i := range in.Ests {
		if got, ok := score(c, in, i, t); ok {
			points = append(points, scoringPoint{est: i, got: got})
		}
	}
	return feed, train, points
}

// checkAck fails the operation (already counted ok) when the daemon did
// not accept every observation of the batch.
func checkAck(body []byte, n int, name string, t *tally) bool {
	var ack struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.Accepted != n {
		t.failed.Add(1)
		t.note(fmt.Sprintf("observe %s: accepted %d of %d (%v)", name, ack.Accepted, n, err))
		return false
	}
	return true
}

// score sends one estimator's scoring set as one batch request.
func score(c *client, in *inputs, est int, t *tally) ([]float64, bool) {
	spec := in.Ests[est]
	ws := make([]string, len(spec.Scoring))
	for i, s := range spec.Scoring {
		ws[i] = s.Where
	}
	b, _ := json.Marshal(map[string]any{"wheres": ws})
	status, body, err := c.do(http.MethodPost, "/v1/"+spec.Name+"/estimate/batch", b)
	if !t.expect("score "+spec.Name, http.StatusOK, status, body, err) {
		return nil, false
	}
	got, err := decodeReadAnswer(true, body)
	if err != nil {
		t.failed.Add(1)
		t.note(fmt.Sprintf("score %s: %v", spec.Name, err))
		return nil, false
	}
	return got, true
}

// writerResult is what the ingest-mixed writer saw.
type writerResult struct {
	writes []time.Duration // from each batch's due time to its acknowledgement
	lates  []time.Duration
	trains []time.Duration
	points []scoringPoint
	acked  [][]observation // per cycle, the observations the daemon acknowledged
}

// runWriter plays the writer's open-loop schedule from start: observe
// batches due every period, then at the end of each cycle a synchronous
// train and a scoring request. A batch is timed from its due time, so a
// stall shows in the latency of every batch it delays. Each cycle's
// schedule starts when the previous cycle's scoring answer arrived: the
// writer's own train call would otherwise make the batches after it late
// and turn write latency into a second train latency.
func runWriter(c *client, in *inputs, start time.Time, t *tally) writerResult {
	plan := in.Writer
	name := in.Ests[plan.Est].Name
	var wr writerResult
	due := start
	for cyc := 0; cyc < plan.cycles(); cyc++ {
		if cyc > 0 {
			due = time.Now()
		}
		var acked []observation
		for b := 0; b < plan.PerCycle; b++ {
			batch := plan.Batches[cyc*plan.PerCycle+b]
			body, _ := json.Marshal(map[string]any{"observations": batch})
			sleepUntil(due)
			wr.lates = append(wr.lates, time.Since(due))
			status, resp, err := c.do(http.MethodPost, "/v1/"+name+"/observe", body)
			wr.writes = append(wr.writes, time.Since(due))
			if t.expect("observe "+name, http.StatusAccepted, status, resp, err) && checkAck(resp, len(batch), name, t) {
				acked = append(acked, batch...)
			}
			due = due.Add(plan.Period)
		}
		wr.acked = append(wr.acked, acked)
		sleepUntil(due)
		t0 := time.Now()
		status, resp, err := c.do(http.MethodPost, "/v1/"+name+"/train", nil)
		wr.trains = append(wr.trains, time.Since(t0))
		t.expect("train "+name, http.StatusOK, status, resp, err)
		if got, ok := score(c, in, plan.Est, t); ok {
			wr.points = append(wr.points, scoringPoint{est: plan.Est, got: got, step: cyc + 1})
		}
	}
	return wr
}

func tailNote(n, chunks int) string {
	if chunks == 1 {
		return fmt.Sprintf("n=%d, pooled", n)
	}
	return fmt.Sprintf("n=%d, median of the p99s of %d chunks of %d", n, chunks, tailChunk)
}

func roundAll(xs []float64, digits int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.*f", digits, x)
	}
	return out
}
