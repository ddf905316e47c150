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

	"quicksel/internal/cpu"
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
			s += float64(v * x[j])
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
			out[j] += float64(v * yi)
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
// the worker count and path, so the result is bit-identical to the
// sequential scalar pass dst[i][j] += (scale·m[k][i])·m[k][j] over k with
// m[k][i] ≠ 0.
//
// The columns go in groups of gramLanes, packed k-major (P[g][k][t] =
// m[k][gramLanes·g + t]), so row i's products with one group stream
// through contiguous memory. Row i lists the k with m[k][i] ≠ 0 and their
// scaled values scale·m[k][i]; gramAVX2, or gramGo on a host without AVX2,
// adds the listed rows of every whole group right of the diagonal, and
// gramCols the columns of the partial groups on either side. The rows of m
// go in blocks of gramBlock, k ascending, each packed into the same buffer
// in its turn, so the copy holds at most gramBlock·Cols values however many
// rows m has.
func (m *Matrix) AddScaledGramWorkers(dst *Matrix, scale float64, workers int) {
	gram := gramGo
	if cpu.AVX2() {
		gram = gramAVX2
	}
	m.addScaledGram(dst, scale, workers, gram)
}

// gramLanes is the width of the Gram product's column groups: four
// four-lane AVX2 registers.
const gramLanes = 16

// gramBlock is the most rows of A the Gram product packs at once. One
// group's packed block is then at most 32 KiB, and an A of more rows, as
// when observations outnumber subpopulations, is not copied whole: each
// element of dst takes a block's products after the previous block's, in
// the same k order, so the bits do not depend on the blocking.
const gramBlock = 256

// gramFunc adds Σ_e vals[e]·P[g][ks[e]] to each group g of gramLanes
// columns of dst, e ascending, where group g of packed, P[g], starts at
// g·stride and holds gramLanes values per row k of A's block.
type gramFunc func(dst, packed []float64, ks []int, vals []float64, stride int)

// addScaledGram is AddScaledGramWorkers with the group routine gram.
func (m *Matrix) addScaledGram(dst *Matrix, scale float64, workers int, gram gramFunc) {
	if dst.Rows != m.Cols || dst.Cols != m.Cols {
		panic("linalg: AddScaledGram destination must be Cols×Cols")
	}
	n, rows := m.Cols, m.Rows
	full := n / gramLanes // whole groups
	packed := make([]float64, full*min(rows, gramBlock)*gramLanes)
	for k0 := 0; k0 < rows; k0 += gramBlock {
		kb := min(rows-k0, gramBlock)
		a := m.Data[k0*n : (k0+kb)*n] // the block's rows of A
		stride := kb * gramLanes
		par.For(workers, full, 0, func(lo, hi int) {
			for g := lo; g < hi; g++ {
				for k := 0; k < kb; k++ {
					copy(packed[g*stride+k*gramLanes:g*stride+(k+1)*gramLanes], a[k*n+g*gramLanes:])
				}
			}
		})
		par.For(workers, n, 0, func(lo, hi int) {
			ks := make([]int, 0, kb)
			vals := make([]float64, 0, kb)
			for i := lo; i < hi; i++ {
				ks, vals = ks[:0], vals[:0]
				for k := 0; k < kb; k++ {
					if v := a[k*n+i]; v != 0 {
						ks = append(ks, k)
						vals = append(vals, scale*v)
					}
				}
				if len(ks) == 0 {
					continue
				}
				di := dst.Data[i*n : (i+1)*n]
				g0 := (i + gramLanes - 1) / gramLanes // the first whole group at or right of i
				lead := min(g0*gramLanes, n)
				gramCols(di, a, n, ks, vals, i, lead)
				if g0 < full {
					gram(di[g0*gramLanes:full*gramLanes], packed[g0*stride:], ks, vals, stride)
				}
				gramCols(di, a, n, ks, vals, max(full*gramLanes, lead), n)
			}
		})
	}
	// Mirror the upper triangle; chunks write disjoint columns.
	par.For(workers, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := i + 1; j < n; j++ {
				dst.Data[j*n+i] = dst.Data[i*n+j]
			}
		}
	})
}

// gramCols adds Σ_e vals[e]·a[ks[e]][j] to di[j] for j ∈ [lo, hi), one
// product at a time, e ascending, where a holds rows of n values.
func gramCols(di, a []float64, n int, ks []int, vals []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	di = di[lo:hi]
	for e, s := range vals {
		row := a[ks[e]*n+lo : ks[e]*n+hi]
		for j, v := range row {
			di[j] += float64(s * v)
		}
	}
}

// gramGo is gramAVX2 in Go: each group in two halves of eight chains, one
// pass over the entries per half.
func gramGo(dst, packed []float64, ks []int, vals []float64, stride int) {
	ks = ks[:len(vals)]
	for g := 0; g+gramLanes <= len(dst); g += gramLanes {
		pg := packed[g/gramLanes*stride : g/gramLanes*stride+stride]
		for h := 0; h < gramLanes; h += 8 {
			d := (*[8]float64)(dst[g+h:])
			s0, s1, s2, s3, s4, s5, s6, s7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
			for e, v := range vals {
				q := (*[8]float64)(pg[ks[e]*gramLanes+h:])
				s0 += float64(v * q[0])
				s1 += float64(v * q[1])
				s2 += float64(v * q[2])
				s3 += float64(v * q[3])
				s4 += float64(v * q[4])
				s5 += float64(v * q[5])
				s6 += float64(v * q[6])
				s7 += float64(v * q[7])
			}
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0, s1, s2, s3, s4, s5, s6, s7
		}
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch: %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
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
		y[i] += float64(alpha * x[i])
	}
}

// Scale multiplies v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}
