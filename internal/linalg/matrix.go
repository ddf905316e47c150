// Package linalg provides the dense linear algebra needed by QuickSel's
// training: row-major matrices, symmetric rank-k products, and a Cholesky
// factorization used to solve the SPD system (Q + λAᵀA) w = λAᵀs of
// Problem 3. The paper's prototype used jblas; no comparable library exists
// for stdlib-only Go, so this package hand-rolls exactly the operations the
// solver needs (see ARCHITECTURE.md, "Numerical substrate").
package linalg

import (
	"errors"
	"fmt"
	"math"

	"quicksel/internal/par"
)

// ErrNotSPD is returned when a Cholesky factorization encounters a
// non-positive pivot, meaning the matrix is not positive definite at
// working precision.
var ErrNotSPD = errors.New("linalg: matrix is not positive definite")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[i*Cols+j] = element (i,j)
}

// NewMatrix returns a zero-initialized r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices. All rows must share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns m · x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch: %d cols vs %d", m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// TransposeMulVec returns mᵀ · y without materializing the transpose.
func (m *Matrix) TransposeMulVec(y []float64) []float64 {
	if len(y) != m.Rows {
		panic(fmt.Sprintf("linalg: TransposeMulVec dimension mismatch: %d rows vs %d", m.Rows, len(y)))
	}
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		yi := y[i]
		if yi == 0 {
			continue
		}
		for j, v := range row {
			out[j] += v * yi
		}
	}
	return out
}

// AddScaledGram accumulates dst += scale · (mᵀ m), where dst is Cols×Cols.
// This forms the λAᵀA term of Problem 3, exploiting symmetry (only the upper
// triangle is computed, then mirrored). It runs on all available cores; see
// AddScaledGramWorkers.
func (m *Matrix) AddScaledGram(dst *Matrix, scale float64) {
	m.AddScaledGramWorkers(dst, scale, 0)
}

// AddScaledGramWorkers is AddScaledGram with an explicit worker count (0 =
// GOMAXPROCS, 1 = sequential). Parallelism is across destination rows, and
// each element of dst accumulates its k-products in ascending order whatever
// the worker count, so the result is bit-identical to the sequential pass.
func (m *Matrix) AddScaledGramWorkers(dst *Matrix, scale float64, workers int) {
	if dst.Rows != m.Cols || dst.Cols != m.Cols {
		panic("linalg: AddScaledGram destination must be Cols×Cols")
	}
	n := m.Cols
	par.For(workers, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			di := dst.Data[i*n:]
			for k := 0; k < m.Rows; k++ {
				row := m.Row(k)
				ri := row[i]
				if ri == 0 {
					continue
				}
				sri := scale * ri
				for j := i; j < n; j++ {
					di[j] += sri * row[j]
				}
			}
		}
	})
	// Mirror the upper triangle; chunks write disjoint columns.
	par.For(workers, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := i + 1; j < n; j++ {
				dst.Data[j*n+i] = dst.Data[i*n+j]
			}
		}
	})
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch: %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// AXPY computes y += alpha·x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY length mismatch")
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}
