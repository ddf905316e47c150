package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"quicksel/internal/geom"
)

// observeWorkload feeds the same deterministic stream of (box, selectivity)
// pairs into a model.
func observeWorkload(t *testing.T, m *Model, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dim := m.Dim()
	for q := 0; q < n; q++ {
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for d := 0; d < dim; d++ {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			lo[d], hi[d] = a, b
		}
		if err := m.Observe(geom.NewBox(lo, hi), rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: training with any worker count produces bit-identical assembled
// matrices, weights, and estimates to the sequential (Workers=1) path. This
// is what keeps PR 1's snapshots reproducible on machines with different
// core counts.
func TestParallelTrainingBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, dim := range []int{1, 2, 4} {
			seq := mustModel(t, Config{Dim: dim, Seed: seed, Workers: 1})
			observeWorkload(t, seq, seed*100, 25)
			if err := seq.Train(); err != nil {
				t.Fatalf("seed=%d dim=%d: sequential train: %v", seed, dim, err)
			}

			for _, workers := range []int{2, 3, 8} {
				parl := mustModel(t, Config{Dim: dim, Seed: seed, Workers: workers})
				observeWorkload(t, parl, seed*100, 25)
				if err := parl.Train(); err != nil {
					t.Fatalf("seed=%d dim=%d workers=%d: train: %v", seed, dim, workers, err)
				}

				// Assembled QP data must match bit-for-bit.
				qs, as, ss := seq.assemble()
				qp, ap, sp := parl.assemble()
				for i, v := range qs.Data {
					if qp.Data[i] != v {
						t.Fatalf("seed=%d dim=%d workers=%d: Q[%d] = %v, want %v", seed, dim, workers, i, qp.Data[i], v)
					}
				}
				for i, v := range as.Data {
					if ap.Data[i] != v {
						t.Fatalf("seed=%d dim=%d workers=%d: A[%d] = %v, want %v", seed, dim, workers, i, ap.Data[i], v)
					}
				}
				for i, v := range ss {
					if sp[i] != v {
						t.Fatalf("seed=%d dim=%d workers=%d: s[%d] = %v, want %v", seed, dim, workers, i, sp[i], v)
					}
				}

				// Trained weights and subpopulations must match bit-for-bit.
				ws, wp := seq.Weights(), parl.Weights()
				if len(ws) != len(wp) {
					t.Fatalf("seed=%d dim=%d workers=%d: %d vs %d weights", seed, dim, workers, len(wp), len(ws))
				}
				for i := range ws {
					if ws[i] != wp[i] {
						t.Fatalf("seed=%d dim=%d workers=%d: weight %d = %v, want %v", seed, dim, workers, i, wp[i], ws[i])
					}
				}
				ss2, sp2 := seq.Subpopulations(), parl.Subpopulations()
				for i := range ss2 {
					if !ss2[i].Equal(sp2[i]) {
						t.Fatalf("seed=%d dim=%d workers=%d: subpop %d differs", seed, dim, workers, i)
					}
				}

				// And so must estimates on fresh query boxes.
				qrng := rand.New(rand.NewSource(seed * 777))
				for q := 0; q < 20; q++ {
					lo := make([]float64, dim)
					hi := make([]float64, dim)
					for d := 0; d < dim; d++ {
						a, b := qrng.Float64(), qrng.Float64()
						if a > b {
							a, b = b, a
						}
						lo[d], hi[d] = a, b
					}
					box := geom.NewBox(lo, hi)
					es, err := seq.Estimate(box)
					if err != nil {
						t.Fatal(err)
					}
					ep, err := parl.Estimate(box)
					if err != nil {
						t.Fatal(err)
					}
					if es != ep {
						t.Fatalf("seed=%d dim=%d workers=%d: estimate %v, want %v", seed, dim, workers, ep, es)
					}
				}
			}
		}
	}
}

// Workers is a runtime knob, but it must survive the snapshot round-trip:
// the serving daemon retrains on snapshot clones, and a clone that forgets
// the operator's parallelism cap would saturate the machine.
func TestSnapshotPreservesWorkers(t *testing.T) {
	m := mustModel(t, Config{Dim: 2, Seed: 1, Workers: 3})
	r, err := Restore(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.Workers != 3 {
		t.Errorf("restored Workers = %d, want 3", r.cfg.Workers)
	}
}

// The compiled estimate path must be allocation-free after training, at
// any dimension: the scan needs no scratch space.
func TestEstimateAllocationFree(t *testing.T) {
	for _, d := range []int{3, 8, 17} {
		m := mustModel(t, Config{Dim: d, Seed: 11})
		observeWorkload(t, m, 42, 20)
		if err := m.Train(); err != nil {
			t.Fatal(err)
		}
		lo, hi := make([]float64, d), make([]float64, d)
		for k := range lo {
			lo[k], hi[k] = 0.1+0.02*float64(k), 0.6+0.02*float64(k)
		}
		box := geom.NewBox(lo, hi)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := m.Estimate(box); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("d=%d: Estimate allocates %v objects per call, want 0", d, allocs)
		}
	}
}

// Estimate scans the raw query corners. The reference below is the clip to
// the unit cube followed by the scan (on the uniform prior, the clipped
// box's volume), and the two agree bit for bit on corners outside [0, 1],
// inverted sides, signed zeros and infinities, because every subpopulation
// lies inside the unit cube. The one exception is a lower corner of +Inf
// on the uniform prior: the clipped side is Inf − Inf = NaN, while the raw
// side is −Inf and the estimate 0.
func TestEstimateMatchesClipThenScan(t *testing.T) {
	const boxes = 20000
	special := []float64{math.Inf(-1), -0.5, math.Copysign(0, -1), 0, 0.5, 1, 1.5, math.Inf(1)}
	for _, d := range []int{1, 2, 3, 8} {
		uniform := mustModel(t, Config{Dim: d, Seed: 3})
		trained := mustModel(t, Config{Dim: d, Seed: 3})
		observeWorkload(t, trained, int64(d), 40)
		if err := trained.Train(); err != nil {
			t.Fatal(err)
		}
		unit := geom.Unit(d)
		rng := rand.New(rand.NewSource(int64(d)))
		pick := func(v float64) float64 {
			if rng.Intn(8) == 0 {
				return special[rng.Intn(len(special))]
			}
			return v
		}
		var positive, infLo int
		for i := 0; i < boxes; i++ {
			lo := make([]float64, d)
			hi := make([]float64, d)
			for k := range lo {
				l := rng.Float64()*1.3 - 0.3
				lo[k], hi[k] = pick(l), pick(l+rng.Float64()*1.2-0.1) // about one side in 12 inverted
			}
			box := geom.NewBox(lo, hi)
			clipped := box.Clip(unit)

			want := clipped.Volume()
			if math.IsNaN(want) {
				hasInfLo := false
				for _, v := range lo {
					hasInfLo = hasInfLo || math.IsInf(v, 1)
				}
				if !hasInfLo {
					t.Fatalf("d=%d box %v: reference NaN without a +Inf lower corner", d, box)
				}
				want = 0
				infLo++
			}
			got, err := uniform.Estimate(box)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d=%d box %v: uniform estimate %v, clip-then-scan %v", d, box, got, want)
			}

			want = 0
			if trained.compiled != nil {
				want = trained.compiled.estimate(clipped.Lo, clipped.Hi)
			}
			if want < 0 {
				want = 0
			}
			if want > 1 {
				want = 1
			}
			if got, err = trained.Estimate(box); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d=%d box %v: trained estimate %v, clip-then-scan %v", d, box, got, want)
			}
			if got > 0 {
				positive++
			}
		}
		t.Logf("d=%d: %d of %d boxes with a positive trained estimate, %d uniform-prior boxes with a +Inf lower corner", d, positive, boxes, infLo)
		if positive < boxes/20 {
			t.Fatalf("d=%d: only %d boxes overlap the trained mixture", d, positive)
		}
	}
}

// A trained Model's Estimate and EstimateUnion write nothing, so readers
// may share it: four goroutines get the serial answers bit for bit. Run
// under -race.
func TestConcurrentEstimatesMatchSerial(t *testing.T) {
	m := mustModel(t, Config{Dim: 3, Seed: 21})
	observeWorkload(t, m, 77, 40)
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	boxes := make([]geom.Box, 200)
	for i := range boxes {
		boxes[i] = randBox(rng, 3)
	}
	read := func(i int) (est, union float64, err error) {
		if est, err = m.Estimate(boxes[i]); err != nil {
			return 0, 0, err
		}
		union, err = m.EstimateUnion(boxes[i : i+2])
		return est, union, err
	}
	wantEst := make([]float64, len(boxes)-1)
	wantUnion := make([]float64, len(boxes)-1)
	for i := range wantEst {
		var err error
		if wantEst[i], wantUnion[i], err = read(i); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range wantEst {
				est, union, err := read(i)
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(est) != math.Float64bits(wantEst[i]) || math.Float64bits(union) != math.Float64bits(wantUnion[i]) {
					t.Errorf("box %d: concurrent (%v, %v), serial (%v, %v)", i, est, union, wantEst[i], wantUnion[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Pruned compilation: zero weights contribute nothing and the pruned fast
// path agrees with a direct evaluation of the mixture formula.
func TestCompiledModelMatchesDirectEvaluation(t *testing.T) {
	m := mustModel(t, Config{Dim: 2, Seed: 13})
	observeWorkload(t, m, 99, 15)
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	// Zero out some weights and recompile to exercise pruning.
	for i := 0; i < len(m.weights); i += 3 {
		m.weights[i] = 0
	}
	m.compiled = compile(m.subpops, m.weights)

	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 50; q++ {
		lo := []float64{rng.Float64() * 0.5, rng.Float64() * 0.5}
		hi := []float64{lo[0] + rng.Float64()*0.5, lo[1] + rng.Float64()*0.5}
		box := geom.NewBox(lo, hi)
		got, err := m.Estimate(box)
		if err != nil {
			t.Fatal(err)
		}
		b := box.Clip(m.unit)
		var want float64
		for j, g := range m.Subpopulations() {
			w := m.weights[j]
			if w == 0 {
				continue
			}
			want += w / g.Volume() * b.IntersectionVolume(g)
		}
		if want < 0 {
			want = 0
		}
		if want > 1 {
			want = 1
		}
		if got != want {
			t.Fatalf("query %d: compiled estimate = %v, direct = %v", q, got, want)
		}
	}
}
