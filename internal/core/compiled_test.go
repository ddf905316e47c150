package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"quicksel/internal/cpu"
	"quicksel/internal/geom"
)

// floatModel is the reference the compiled scan is held to: the retained
// kernels as a float geom.BoxSet, scanned with
// BoxSet.CornersIntersectionVolume, weighted by w_j/|G_j| and summed in
// order.
type floatModel struct {
	set    *geom.BoxSet
	wOverV []float64
}

func compileFloat(subpops *geom.BoxSet, weights []float64) *floatModel {
	f := &floatModel{set: geom.NewBoxSet(subpops.Dim(), len(weights))}
	for j, w := range weights {
		if w != 0 {
			f.set.Append(subpops.Box(j))
			f.wOverV = append(f.wOverV, w/subpops.Volume(j))
		}
	}
	return f
}

// estimate converts each weighted term to float64 before adding it, so no
// target fuses the multiply into the add, as the compiled scans do.
func (f *floatModel) estimate(lo, hi []float64) float64 {
	var est float64
	for j, wv := range f.wOverV {
		est += float64(wv * f.set.CornersIntersectionVolume(j, lo, hi))
	}
	return est
}

// scanPath is one of the compiled model's two scans, called by name: the
// AVX2 routine, which runs only where the host has AVX2, and its pure-Go
// twin, which runs everywhere.
type scanPath struct {
	name string
	scan func(c *compiledModel, lo, hi []float64) float64
}

var scanPaths = []scanPath{
	{"avx2", (*compiledModel).estimateAVX2},
	{"go", (*compiledModel).estimateGo},
}

// available reports whether this host can run the path.
func (p scanPath) available() bool { return p.name != "avx2" || cpu.AVX2() }

// checkScan fails the test unless every scan path this host can run returns
// the float reference's bits for (lo, hi).
func checkScan(t testing.TB, c *compiledModel, ref *floatModel, lo, hi []float64) {
	t.Helper()
	want := ref.estimate(lo, hi)
	for _, p := range scanPaths {
		if p.available() {
			checkPath(t, p, c, want, lo, hi)
		}
	}
}

// checkPath fails the test unless path p's scan of (lo, hi) has want's bits.
func checkPath(t testing.TB, p scanPath, c *compiledModel, want float64, lo, hi []float64) {
	t.Helper()
	if got := p.scan(c, lo, hi); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("corners %v, %v: %s scan %v (%#x), float scan %v (%#x)",
			lo, hi, p.name, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// adversarialCorners are query corner values the integer order must place
// where the float min and max would: both infinities and zeros, the
// smallest and largest subnormals of both signs, the cube's faces, values
// just inside and outside them, and the largest finite floats.
var adversarialCorners = []float64{
	math.Inf(-1), -math.MaxFloat64, -1.5, -0.5,
	-math.Float64frombits(0x000fffffffffffff), -math.SmallestNonzeroFloat64,
	math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	math.Nextafter(0, 1), 0.25, 0.5, math.Nextafter(1, 0), 1, math.Nextafter(1, 2),
	1.5, math.MaxFloat64, math.Inf(1),
}

// withoutLast returns a copy of weights with the last n non-zero weights
// set to zero, so compile retains n fewer kernels.
func withoutLast(weights []float64, n int) []float64 {
	w := append([]float64(nil), weights...)
	for j := len(w) - 1; j >= 0 && n > 0; j-- {
		if w[j] != 0 {
			w[j] = 0
			n--
		}
	}
	return w
}

// Property: on trained models of every dimension — 17 included, so the
// scan has no dimension cap — both compiled scans return the float scan's
// bits, on workload-like queries and on queries whose corners are
// adversarial values, the kernels' own corners (ties), inverted sides or a
// hi corner of −Inf. Each model is compiled four times, retaining one
// kernel fewer each time, so the kernel counts cover every residue mod 4
// and the padding lanes of every partial group.
func TestCompiledEstimateMatchesFloatScan(t *testing.T) {
	const queries = 4000
	for _, d := range []int{1, 2, 3, 8, 17} {
		m := mustModel(t, Config{Dim: d, Seed: int64(d)})
		observeWorkload(t, m, int64(100+d), 40)
		if err := m.Train(); err != nil {
			t.Fatal(err)
		}
		if m.compiled == nil {
			t.Fatalf("d=%d: trained model has no compiled form", d)
		}
		rng := rand.New(rand.NewSource(int64(d)))
		kernels := m.subpops
		corner := func(v float64) float64 {
			switch rng.Intn(6) {
			case 0:
				return adversarialCorners[rng.Intn(len(adversarialCorners))]
			case 1: // a kernel's own corner, so the scan meets ties
				if rng.Intn(2) == 0 {
					return kernels.Lo[rng.Intn(len(kernels.Lo))]
				}
				return kernels.Hi[rng.Intn(len(kernels.Hi))]
			}
			return v
		}
		qlo, qhi := make([]float64, 0, 2*queries*d), make([]float64, 0, 2*queries*d)
		inverted := 0
		for q := 0; q < queries; q++ {
			for range d {
				// Wide sides keep positive estimates common at d=17.
				l := rng.Float64()*0.6 - 0.1
				lo, hi := l, l+rng.Float64()*0.9
				if q%2 == 1 {
					lo, hi = corner(lo), corner(hi)
				}
				if hi < lo {
					inverted++
				}
				qlo, qhi = append(qlo, lo), append(qhi, hi)
			}
		}
		if inverted == 0 {
			t.Fatalf("d=%d: no inverted side; the generator covers too little", d)
		}
		// The same queries again, each with one hi corner of −Inf: an
		// empty side that clamping l down to h would turn into NaN.
		qlo, qhi = append(qlo, qlo...), append(qhi, qhi...)
		for q := queries; q < 2*queries; q++ {
			qhi[q*d+q%d] = math.Inf(-1)
		}
		for drop := range lanes {
			weights := withoutLast(m.weights, drop)
			c, ref := compile(kernels, weights), compileFloat(kernels, weights)
			retained := len(ref.wOverV)
			if retained < lanes || len(c.wOverV) != (retained+lanes-1)/lanes*lanes {
				t.Fatalf("d=%d: %d retained kernels in %d lanes", d, retained, len(c.wOverV))
			}
			for _, p := range scanPaths {
				t.Run(fmt.Sprintf("d=%d/m=%d/%s", d, retained, p.name), func(t *testing.T) {
					if !p.available() {
						t.Skip("this host has no AVX2")
					}
					positive := 0
					for q := 0; q < 2*queries; q++ {
						lo, hi := qlo[q*d:][:d], qhi[q*d:][:d]
						want := ref.estimate(lo, hi)
						checkPath(t, p, c, want, lo, hi)
						if want > 0 {
							positive++
						}
					}
					t.Logf("%d of %d queries positive, %d inverted sides", positive, 2*queries, inverted)
					if positive < queries/10 {
						t.Fatalf("%d positive queries; the generator covers too little", positive)
					}
				})
			}
		}
	}
}

// A snapshot may carry a −0 subpopulation corner: Restore accepts it, as
// −0 lies in the unit cube. The compiled form takes it as +0, so the
// restored scan still matches the float scan over the −0 corners, and the
// original model's estimates, bit for bit — the case a −0 kernel corner
// would break is a negative query corner, which the float max places at
// the kernel's zero.
func TestCompiledEstimateNegativeZeroCorner(t *testing.T) {
	m := mustModel(t, Config{Dim: 2, Seed: 5})
	observeWorkload(t, m, 55, 30)
	if err := m.Train(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	zeros := 0
	for _, b := range snap.Subpops {
		for k, v := range b.Lo {
			if v == 0 {
				b.Lo[k] = math.Copysign(0, -1)
				zeros++
			}
		}
	}
	if zeros == 0 {
		t.Fatal("no subpopulation touches the cube's lower faces")
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&back)
	if err != nil {
		t.Fatal(err)
	}
	negZeros := 0
	for _, v := range r.subpops.Lo {
		if v == 0 && math.Signbit(v) {
			negZeros++
		}
	}
	if negZeros != zeros {
		t.Fatalf("restored model holds %d −0 corners, want %d", negZeros, zeros)
	}
	ref := compileFloat(r.subpops, r.weights)
	rng := rand.New(rand.NewSource(9))
	for q := 0; q < 2000; q++ {
		lo := []float64{rng.Float64() - 0.5, rng.Float64() - 0.5}
		hi := []float64{lo[0] + rng.Float64(), lo[1] + rng.Float64()}
		if q%4 == 0 {
			lo[rng.Intn(2)] = math.Copysign(0, -1)
		}
		checkScan(t, r.compiled, ref, lo, hi)
		box := geom.NewBox(lo, hi)
		want, err := m.Estimate(box)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Estimate(box)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("box %v: restored estimate %v, original %v", box, got, want)
		}
	}
}

// FuzzCompiledEstimate compares both compiled scans with the float scan bit
// for bit on fuzzed query corners (any non-NaN float), over a trained d=2
// mixture plus one fuzzed kernel whenever the fuzzed kernel corners form a
// box of positive volume inside the unit cube. Each mixture is compiled
// four times, retaining one kernel fewer each time, so every residue of
// the kernel count mod 4 meets the fuzzed corners.
func FuzzCompiledEstimate(f *testing.F) {
	m, err := New(Config{Dim: 2, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		if err := m.Observe(randBox(rng, 2), rng.Float64()); err != nil {
			f.Fatal(err)
		}
	}
	if err := m.Train(); err != nil {
		f.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	f.Add(0.1, 0.2, 0.6, 0.7, 0.0, 0.0, 0.5, 0.5)
	f.Add(-0.5, negZero, 1.0, math.Inf(1), negZero, negZero, 1.0, 1.0)
	f.Add(math.Inf(-1), math.Inf(1), math.Inf(1), math.Inf(-1), 0.25, 0.25, 0.75, 0.75)
	f.Add(math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1.5, 0.5, math.SmallestNonzeroFloat64, 0.0, 1.0, 0.5)
	f.Add(m.subpops.Lo[0], m.subpops.Lo[1], m.subpops.Hi[0], m.subpops.Hi[1], 0.3, 0.3, 0.3, 0.3)
	f.Fuzz(func(t *testing.T, qlo0, qlo1, qhi0, qhi1, klo0, klo1, khi0, khi1 float64) {
		lo, hi := []float64{qlo0, qlo1}, []float64{qhi0, qhi1}
		for _, v := range append(lo, hi...) {
			if math.IsNaN(v) {
				t.Skip("NaN query corners are rejected before the scan")
			}
		}
		subpops, weights := m.subpops, m.weights
		kernel := geom.NewBox([]float64{klo0, klo1}, []float64{khi0, khi1})
		if kernel.Validate() == nil && kernel.Volume() > 0 && m.unit.ContainsBox(kernel) {
			subpops = geom.NewBoxSet(2, subpops.Len()+1)
			for j := 0; j < m.subpops.Len(); j++ {
				subpops.Append(m.subpops.Box(j))
			}
			subpops.Append(kernel)
			weights = append(append([]float64(nil), weights...), 0.25)
		}
		for drop := range lanes {
			w := withoutLast(weights, drop)
			checkScan(t, compile(subpops, w), compileFloat(subpops, w), lo, hi)
		}
	})
}

// BenchmarkCompiledEstimate times the AVX2 scan ("avx2", skipped on a host
// without AVX2), its pure-Go twin ("go") and their float reference
// ("float", the floatModel scan), and reports ns per kernel and allocations
// per query; ci/check_kernel.sh holds the three against each other. The
// shapes are those of BenchmarkBoxSetCornersIntersectionVolume in
// internal/geom, which mirror perfbench's point-small (d=2, 300 kernels)
// and batch-wide (d=8, 2000) models: about 20% and 80% of (query, kernel)
// pairs intersect. Queries cycle through a seeded pool of 1024 so the
// branch predictor cannot learn a single one.
func BenchmarkCompiledEstimate(b *testing.B) {
	for _, sh := range []struct {
		d, m       int
		spread     float64 // standard deviation of box centres around 0.5
		side       float64 // kernel side
		minW, maxW float64 // query side range
	}{
		{d: 2, m: 300, spread: 0.22, side: 0.13, minW: 0.1, maxW: 0.4},
		{d: 8, m: 2000, spread: 0.125, side: 0.456, minW: 0.2, maxW: 0.5},
	} {
		rng := rand.New(rand.NewSource(1))
		unit := geom.Unit(sh.d)
		box := func(minSide, maxSide float64) geom.Box {
			c := make([]float64, sh.d)
			hw := make([]float64, sh.d)
			for k := range c {
				c[k] = min(max(0.5+sh.spread*rng.NormFloat64(), 0), 1)
				hw[k] = (minSide + (maxSide-minSide)*rng.Float64()) / 2
			}
			return geom.CenteredBox(c, hw, unit)
		}
		set := geom.NewBoxSet(sh.d, sh.m)
		weights := make([]float64, sh.m)
		for j := range weights {
			set.Append(box(sh.side, sh.side))
			weights[j] = 1 / float64(sh.m)
		}
		queries := make([]geom.Box, 1024)
		for i := range queries {
			queries[i] = box(sh.minW, sh.maxW)
		}
		c := compile(set, weights)
		for _, scan := range []struct {
			name string
			fn   func(lo, hi []float64) float64
		}{
			{"avx2", c.estimateAVX2},
			{"go", c.estimateGo},
			{"float", compileFloat(set, weights).estimate},
		} {
			b.Run(fmt.Sprintf("d=%d/m=%d/%s", sh.d, sh.m, scan.name), func(b *testing.B) {
				if scan.name == "avx2" && !cpu.AVX2() {
					b.Skip("this host has no AVX2")
				}
				b.ReportAllocs()
				var sum float64
				n := 0
				for b.Loop() {
					q := queries[n%len(queries)]
					sum += scan.fn(q.Lo, q.Hi)
					n++
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*sh.m), "ns/kernel")
				benchSink = sum
			})
		}
	}
}

var benchSink float64
