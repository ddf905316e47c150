package main

import (
	"fmt"
	"sort"

	"quicksel"
	"quicksel/internal/lifecycle"
)

// control is the in-process correctness oracle for one estimator: a
// quicksel.Estimator fed the same acknowledged observations and trained at
// the same points as the daemon's. It mirrors the registry's retrain cycle
// exactly — clone the serving model, absorb the pending batch, train, swap
// — so its answers must match the daemon's bit for bit.
type control struct {
	spec    *estSpec
	est     *quicksel.Estimator
	pending []observation
}

func newControl(spec *estSpec) (*control, error) {
	est, err := quicksel.New(spec.Schema, spec.options()...)
	if err != nil {
		return nil, fmt.Errorf("control %s: %w", spec.Name, err)
	}
	return &control{spec: spec, est: est}, nil
}

func (c *control) observe(obs ...observation) { c.pending = append(c.pending, obs...) }

// train flushes the pending observations into a clone and swaps it in. Like
// the registry, it does nothing when no observation is pending.
func (c *control) train() error {
	if len(c.pending) == 0 {
		return nil
	}
	clone, err := c.est.CloneForTraining()
	if err != nil {
		return err
	}
	for _, o := range c.pending {
		p, err := quicksel.Parse(c.spec.Schema, o.Where)
		if err != nil {
			return fmt.Errorf("control %s: %w", c.spec.Name, err)
		}
		if err := clone.Observe(p, o.Sel); err != nil {
			return fmt.Errorf("control %s: %w", c.spec.Name, err)
		}
	}
	if err := clone.Train(); err != nil {
		return fmt.Errorf("control %s: %w", c.spec.Name, err)
	}
	c.est, c.pending = clone, nil
	return nil
}

func (c *control) answers(wheres []string) ([]float64, error) {
	out := make([]float64, len(wheres))
	for i, w := range wheres {
		v, err := c.est.EstimateWhere(w)
		if err != nil {
			return nil, fmt.Errorf("control %s: %w", c.spec.Name, err)
		}
		out[i] = v
	}
	return out, nil
}

// scoringPoint is the daemon's answers to one estimator's scoring set at a
// point where its model depends only on the seed.
type scoringPoint struct {
	est  int
	got  []float64
	step int // writer cycles completed before the point (0 = after set-up)
}

// verify compares every scoring point with the control's answers at the
// same training step, and returns the q-errors of the daemon's answers.
// advance(step) must bring the controls to that step.
func verify(in *inputs, ctls []*control, points []scoringPoint, advance func(step int) error, t *tally) ([]float64, error) {
	sort.SliceStable(points, func(i, j int) bool { return points[i].step < points[j].step })
	var qerrs []float64
	for _, pt := range points {
		if err := advance(pt.step); err != nil {
			return nil, err
		}
		spec := in.Ests[pt.est]
		ws := make([]string, len(spec.Scoring))
		for i, s := range spec.Scoring {
			ws[i] = s.Where
		}
		want, err := ctls[pt.est].answers(ws)
		if err != nil {
			return nil, err
		}
		if err := checkRead(pt.got, want, len(want)); err != nil {
			t.fail("scoring %s at step %d: %v", spec.Name, pt.step, err)
			continue
		}
		for i, s := range spec.Scoring {
			qerrs = append(qerrs, lifecycle.QError(pt.got[i], s.Actual))
		}
	}
	return qerrs, nil
}

// readAnswers precomputes the control's answers to every read of the pool,
// for workloads whose model does not change while reads are timed.
func readAnswers(in *inputs, ctls []*control) ([][]float64, error) {
	out := make([][]float64, len(in.Reads))
	for i, r := range in.Reads {
		a, err := ctls[r.Est].answers(r.Wheres)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

func setupControls(in *inputs) ([]*control, error) {
	ctls := make([]*control, len(in.Ests))
	for i, spec := range in.Ests {
		c, err := newControl(spec)
		if err != nil {
			return nil, err
		}
		c.observe(spec.Feedback...)
		if err := c.train(); err != nil {
			return nil, err
		}
		ctls[i] = c
	}
	return ctls, nil
}
