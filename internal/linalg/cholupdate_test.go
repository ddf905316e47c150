package linalg

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// reconstruct returns L·Lᵀ of the factor.
func reconstruct(c *Cholesky) *Matrix {
	n := c.n
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += c.l[i*n+k] * c.l[j*n+k]
			}
			m.Set(i, j, s)
			m.Set(j, i, s)
		}
	}
	return m
}

func maxAbsDiff(a, b *Matrix) float64 {
	var worst float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func randomVec(rng *rand.Rand, n, scale float64) []float64 {
	v := make([]float64, int(n))
	for i := range v {
		v[i] = scale * (rng.Float64() - 0.5)
	}
	return v
}

func TestUpdateMatchesRefactorization(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, n := range []int{1, 3, 8, 33} {
			rng := rand.New(rand.NewSource(seed))
			m := randomSPD(rng, n)
			ch, err := NewCholesky(m)
			if err != nil {
				t.Fatalf("seed=%d n=%d: %v", seed, n, err)
			}
			v := randomVec(rng, float64(n), 1)
			ch.Update(v)
			want := m.Clone()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want.Data[i*n+j] += v[i] * v[j]
				}
			}
			got := reconstruct(ch)
			if d := maxAbsDiff(got, want); d > 1e-9 {
				t.Fatalf("seed=%d n=%d: updated factor off by %g", seed, n, d)
			}
		}
	}
}

// referenceUpdate is the single-vector rank-1 sweep the multi-vector
// Update replaced: one Givens rotation per column, rotations applied lazily
// row by row. Update with several vectors must equal successive calls of it
// bit for bit.
func referenceUpdate(c *Cholesky, v []float64) {
	n, l := c.n, c.l
	cs := make([]float64, n)
	sn := make([]float64, n)
	for i := 0; i < n; i++ {
		li := l[i*n : i*n+i+1]
		wi := v[i]
		for j := 0; j < i; j++ {
			t := cs[j]*li[j] + sn[j]*wi
			wi = cs[j]*wi - sn[j]*li[j]
			li[j] = t
		}
		r := math.Hypot(li[i], wi)
		cs[i] = li[i] / r
		sn[i] = wi / r
		li[i] = r
	}
}

// One Update call with k vectors equals k successive single-vector sweeps
// bit for bit, for every remainder of the four-wide interleave, and leaves
// the vectors unmodified.
func TestUpdateManyBitIdenticalToSuccessive(t *testing.T) {
	for _, n := range []int{1, 2, 5, 64, 129, 300} {
		rng := rand.New(rand.NewSource(int64(n)))
		base, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 9; k++ {
			vs := make([][]float64, k)
			for r := range vs {
				vs[r] = randomVec(rng, float64(n), 2)
			}
			kept := make([][]float64, k)
			for r, v := range vs {
				kept[r] = append([]float64(nil), v...)
			}
			want := base.Clone()
			for _, v := range vs {
				referenceUpdate(want, v)
			}
			got := base.Clone()
			got.Update(vs...)
			for i := range want.l {
				if math.Float64bits(got.l[i]) != math.Float64bits(want.l[i]) {
					t.Fatalf("n=%d k=%d: L[%d][%d] = %v, want %v (successive updates)",
						n, k, i/n, i%n, got.l[i], want.l[i])
				}
			}
			for r := range vs {
				for i := range vs[r] {
					if math.Float64bits(vs[r][i]) != math.Float64bits(kept[r][i]) {
						t.Fatalf("n=%d k=%d: Update modified vector %d", n, k, r)
					}
				}
			}
		}
	}
}

func TestDowndateUndoesUpdate(t *testing.T) {
	for _, seed := range []int64{4, 5} {
		for _, n := range []int{2, 7, 25} {
			rng := rand.New(rand.NewSource(seed))
			m := randomSPD(rng, n)
			ch, err := NewCholesky(m)
			if err != nil {
				t.Fatal(err)
			}
			v := randomVec(rng, float64(n), 0.5)
			ch.Update(v)
			if err := ch.Downdate(v); err != nil {
				t.Fatalf("seed=%d n=%d: downdate of just-added vector failed: %v", seed, n, err)
			}
			if d := maxAbsDiff(reconstruct(ch), m); d > 1e-9 {
				t.Fatalf("seed=%d n=%d: round trip off by %g", seed, n, d)
			}
		}
	}
}

func TestDowndateRejectsLosingDefiniteness(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randomSPD(rng, 10)
	ch, err := NewCholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	before := reconstruct(ch)
	// Removing 10·e0·e0ᵀ drives the (0,0) entry far negative.
	v := make([]float64, 10)
	v[0] = 10
	if err := ch.Downdate(v); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("Downdate = %v, want ErrNotSPD", err)
	}
	// The feasibility pre-check fails before any column is rewritten.
	if d := maxAbsDiff(reconstruct(ch), before); d != 0 {
		t.Fatalf("factor modified by rejected downdate (off by %g)", d)
	}
}

func TestFactorSPDAppliesRidgeToSingular(t *testing.T) {
	// Rank-1 matrix: needs the escalating ridge.
	m := FromRows([][]float64{{1, 1}, {1, 1}})
	ch, ridge, err := FactorSPD(m, 1)
	if err != nil {
		t.Fatalf("FactorSPD: %v", err)
	}
	if ridge <= 0 {
		t.Fatalf("ridge = %g, want > 0", ridge)
	}
	if ch.N() != 2 {
		t.Fatalf("n = %d", ch.N())
	}
	for i, v := range []float64{1, 1, 1, 1} {
		if m.Data[i] != v {
			t.Fatalf("FactorSPD modified its input: %v", m.Data)
		}
	}
	// The factor is exactly that of the hand-built m + ridge·I.
	want, err := NewCholeskyWorkers(FromRows([][]float64{{1 + ridge, 1}, {1, 1 + ridge}}), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.l {
		if math.Float64bits(ch.l[i]) != math.Float64bits(want.l[i]) {
			t.Fatalf("factor[%d] = %v, want %v (m + ridge·I)", i, ch.l[i], want.l[i])
		}
	}
}

// FactorSPD allocates one n×n matrix, the factor: the ridge goes onto the
// factor's own copy of the input rather than onto a second copy.
func TestFactorSPDAllocatesOneMatrix(t *testing.T) {
	const n = 256
	m := randomSPD(rand.New(rand.NewSource(14)), n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := FactorSPD(m, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n*n*8*11/10); got > limit {
		t.Fatalf("FactorSPD of a %d×%d matrix allocated %d bytes, want at most %d", n, n, got, limit)
	}
}
