package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("NewMatrix must zero-initialize")
		}
	}
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("At returned wrong elements: %v", m.Data)
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Error("Set did not take effect")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := m.MulVec([]float64{1, -1})
	want := []float64{-1, -1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", got, want)
		}
	}
}

func TestTransposeMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := m.TransposeMulVec([]float64{1, 1, 1})
	want := []float64{9, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TransposeMulVec = %v, want %v", got, want)
		}
	}
}

func TestAddScaledGram(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {0, 1}})
	dst := NewMatrix(2, 2)
	a.AddScaledGram(dst, 2)
	// AᵀA = [[1,2],[2,5]]; scaled by 2 = [[2,4],[4,10]].
	want := [][]float64{{2, 4}, {4, 10}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if dst.At(i, j) != want[i][j] {
				t.Fatalf("AddScaledGram = %v, want %v", dst.Data, want)
			}
		}
	}
	if dst.SymmetricError() != 0 {
		t.Error("gram matrix must be symmetric")
	}
}

func TestDotNormAXPYScale(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Error("Norm2 wrong")
	}
	y := []float64{1, 1}
	AXPY(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Errorf("AXPY = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 1.5 || y[1] != 2.5 {
		t.Errorf("Scale = %v", y)
	}
}

func TestCholeskyKnown(t *testing.T) {
	// M = [[4,2],[2,3]] has L = [[2,0],[1,sqrt2]].
	m := FromRows([][]float64{{4, 2}, {2, 3}})
	ch, err := NewCholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.Solve([]float64{8, 7})
	// Solve [[4,2],[2,3]] x = [8,7] → x = [5/4, 3/2].
	if math.Abs(x[0]-1.25) > 1e-12 || math.Abs(x[1]-1.5) > 1e-12 {
		t.Errorf("Solve = %v, want [1.25 1.5]", x)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(m); !errors.Is(err, ErrNotSPD) {
		t.Errorf("expected ErrNotSPD, got %v", err)
	}
	if _, err := NewCholesky(NewMatrix(2, 3)); err == nil {
		t.Error("expected error for non-square input")
	}
}

// The empty system factors, and its solve is the empty solution.
func TestSolveSPDEmpty(t *testing.T) {
	ch, _, err := FactorSPD(NewMatrix(0, 0), 0)
	if err != nil {
		t.Fatalf("empty factor: %v", err)
	}
	if x := ch.Solve(nil); len(x) != 0 {
		t.Errorf("empty solve: x=%v", x)
	}
}

func TestSolveSPDRidgeRecoversSingular(t *testing.T) {
	// Rank-1 PSD matrix: bare Cholesky fails, ridge must rescue it.
	m := FromRows([][]float64{{1, 1}, {1, 1}})
	ch, ridge, err := FactorSPD(m, 0)
	if err != nil {
		t.Fatalf("FactorSPD failed: %v", err)
	}
	if ridge == 0 {
		t.Error("expected a non-zero ridge for a singular matrix")
	}
	// Solution of the ridged system stays near the minimum-norm solution [1,1].
	x := ch.Solve([]float64{2, 2})
	if math.Abs(x[0]-1) > 0.01 || math.Abs(x[1]-1) > 0.01 {
		t.Errorf("ridged solution = %v, want ≈[1 1]", x)
	}
}

// randomSPD builds a random SPD matrix BᵀB + I.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	m := NewMatrix(n, n)
	b.AddScaledGram(m, 1)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] += 1
	}
	return m
}

// Property: Cholesky reconstruction L·Lᵀ equals the input within tolerance.
func TestPropertyCholeskyReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		m := randomSPD(rng, n)
		ch, err := NewCholesky(m)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k <= min(i, j); k++ {
					s += ch.l[i*n+k] * ch.l[j*n+k]
				}
				if math.Abs(s-m.At(i, j)) > 1e-8*(1+math.Abs(m.At(i, j))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the FactorSPD + Solve residual ‖Mx-b‖ is tiny relative to ‖b‖.
func TestPropertySolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		m := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ch, _, err := FactorSPD(m, 0)
		if err != nil {
			return false
		}
		x := ch.Solve(b)
		r := m.MulVec(x)
		AXPY(-1, b, r)
		return Norm2(r) <= 1e-8*(1+Norm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCholeskySolve(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{50, 200, 400} {
		m := randomSPD(rng, n)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		b.Run(itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ch, _, err := FactorSPD(m, 0)
				if err != nil {
					b.Fatal(err)
				}
				ch.Solve(rhs)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
