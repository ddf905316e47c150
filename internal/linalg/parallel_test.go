package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"quicksel/internal/par"
)

// referenceCholesky is the textbook unblocked left-looking factorization the
// blocked kernel replaced. The blocked, parallel factorization must
// reproduce it bit-for-bit: every element subtracts the same products in the
// same ascending-k order, and intermediate stores do not change IEEE-754
// float64 results.
func referenceCholesky(m *Matrix) ([]float64, error) {
	n := m.Rows
	l := make([]float64, n*n)
	copy(l, m.Data)
	for j := 0; j < n; j++ {
		d := l[j*n+j]
		for k := 0; k < j; k++ {
			d -= l[j*n+k] * l[j*n+k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotSPD
		}
		d = math.Sqrt(d)
		l[j*n+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := l[i*n+j]
			li := l[i*n:]
			lj := l[j*n:]
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			l[i*n+j] = s * inv
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l[i*n+j] = 0
		}
	}
	return l, nil
}

// Sizes straddle the block width so partial panels, exact panels, and
// multi-panel trailing updates are all exercised, and mix odd and even
// sizes so every remainder of the tiled kernels occurs: an odd row left
// after the row pairs, and zero, one or two columns left after a pair's
// 2×3 tiles.
var choleskySizes = []int{1, 2, 3, 5, choleskyBlock - 1, choleskyBlock, choleskyBlock + 1,
	2*choleskyBlock + 1, 3 * choleskyBlock, 200, 257, 513}

func TestBlockedCholeskyBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range choleskySizes {
		m := randomSPD(rng, n)
		want, err := referenceCholesky(m)
		if err != nil {
			t.Fatalf("n=%d: reference: %v", n, err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			ch, err := NewCholeskyWorkers(m, workers)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i, v := range ch.l {
				if v != want[i] {
					t.Fatalf("n=%d workers=%d: L[%d][%d] = %v, want %v (not bit-identical)",
						n, workers, i/n, i%n, v, want[i])
				}
			}
		}
	}
}

func TestBlockedCholeskyRejectsNonSPD(t *testing.T) {
	// A matrix that fails inside a later panel, not at the first pivot.
	n := choleskyBlock + 10
	rng := rand.New(rand.NewSource(8))
	m := randomSPD(rng, n)
	m.Set(n-1, n-1, -1)
	for _, workers := range []int{1, 4} {
		if _, err := NewCholeskyWorkers(m, workers); err != ErrNotSPD {
			t.Fatalf("workers=%d: err = %v, want ErrNotSPD", workers, err)
		}
	}
}

func TestAddScaledGramWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, shape := range [][2]int{{1, 1}, {3, 7}, {40, 130}, {201, 65}} {
		rows, cols := shape[0], shape[1]
		a := NewMatrix(rows, cols)
		for i := range a.Data {
			a.Data[i] = rng.Float64()*2 - 1
			if rng.Intn(5) == 0 {
				a.Data[i] = 0 // exercise the zero-skip path
			}
		}
		want := NewMatrix(cols, cols)
		for i := range want.Data {
			want.Data[i] = rng.Float64() // non-zero accumulation target
		}
		got2 := want.Clone()
		got8 := want.Clone()
		a.AddScaledGramWorkers(want, 1.7, 1)
		a.AddScaledGramWorkers(got2, 1.7, 2)
		a.AddScaledGramWorkers(got8, 1.7, 8)
		for i := range want.Data {
			if got2.Data[i] != want.Data[i] || got8.Data[i] != want.Data[i] {
				t.Fatalf("%dx%d: element %d differs across worker counts", rows, cols, i)
			}
		}
	}
}

// BenchmarkCholeskyFactor times one blocked factorization — the diagonal
// blocks, the panel solves and the register-tiled trailing update — at one
// worker and at GOMAXPROCS.
func BenchmarkCholeskyFactor(b *testing.B) {
	for _, n := range []int{250, 1000} {
		m := randomSPD(rand.New(rand.NewSource(15)), n)
		for _, workers := range []int{1, 0} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, par.Workers(workers)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := NewCholeskyWorkers(m, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
