package linalg

import (
	"fmt"
	"math"

	"quicksel/internal/cpu"
	"quicksel/internal/par"
)

// choleskyBlock is the panel width of the blocked factorization. 64 columns
// keep a panel row (64×8 bytes) plus the updated row inside L1 while the
// trailing update streams the lower triangle once per panel instead of once
// per column.
const choleskyBlock = 64

// The trailing update's tile: tileRows rows by tileCols columns, two
// four-lane AVX2 registers per row, so eight independent subtraction chains.
const (
	tileRows = 4
	tileCols = 8
)

// Cholesky holds the lower-triangular factor L of an SPD matrix M = L·Lᵀ.
type Cholesky struct {
	n int
	l []float64 // row-major lower triangle, full n×n storage
}

// hostTiles returns the trailing update's tile routine for this host:
// tilesAVX2 where it has AVX2, and nil, the scalar 2×3 tiles over the
// unpacked panel, on every other host.
func hostTiles() tileFunc {
	if cpu.AVX2() {
		return tilesAVX2
	}
	return nil
}

// factor factors m + ridge·I with the trailing update's tiles. The ridge is
// added to the factor's own copy of m, so neither m nor a second n×n matrix
// is touched. workers bounds the goroutines (0 = GOMAXPROCS, 1 =
// sequential). It returns ErrNotSPD if a pivot is non-positive at working
// precision.
//
// The algorithm is a blocked right-looking factorization: factor a
// choleskyBlock-wide diagonal block, solve the panel below it, then apply
// the panel's rank-nb update to the trailing lower triangle. The panel solve
// and trailing update are parallel across row chunks, and register-tiled
// within them: the panel solve takes two rows per pass, the trailing update
// tiles of tileRows×tileCols elements, so several independent subtraction
// chains run side by side. The tiles read the panel packed, transposed, into
// the strict upper triangle (packPanel), where one load brings one k of four
// adjacent columns. Every element nevertheless accumulates its subtractions
// in exactly the order of the textbook unblocked left-looking loop — one
// rounded product at a time, k ascending from 0 — and chunks write disjoint
// rows, so the factor is bit-identical for every worker count, block size,
// tile shape and trailing update (intermediate stores do not change
// IEEE-754 results; each operation rounds to float64 either way). With nil
// tiles, as on a host without AVX2, nothing is packed and every element
// goes through subRows' 2×3 tiles over the unpacked panel.
func factor(m *Matrix, ridge float64, workers int, tiles tileFunc) (*Cholesky, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %d×%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	l := make([]float64, n*n)
	copy(l, m.Data)
	if ridge != 0 {
		for i := 0; i < n; i++ {
			l[i*n+i] += ridge
		}
	}
	workers = par.Workers(workers)
	// Row-chunk grain for the panel solve and trailing update: fine enough
	// to balance the triangular row costs, coarse enough that chunk claiming
	// is noise, and a multiple of tileRows, so every chunk but the last holds
	// whole tiles (and whole row pairs).
	grain := n / (workers * 8)
	if grain < 8 {
		grain = 8
	}
	grain = (grain + tileRows - 1) / tileRows * tileRows
	var spdErr error
	for p := 0; p < n; p += choleskyBlock {
		pe := p + choleskyBlock
		if pe > n {
			pe = n
		}
		// Factor the diagonal block l[p:pe, p:pe]. Previous panels already
		// subtracted their contributions (trailing update below), so only
		// within-panel columns k ∈ [p, j) remain — continuing each element's
		// ascending-k subtraction sequence.
		for j := p; j < pe; j++ {
			lj := l[j*n:]
			d := lj[j]
			for k := p; k < j; k++ {
				d -= float64(lj[k] * lj[k])
			}
			if d <= 0 || math.IsNaN(d) {
				spdErr = ErrNotSPD
				break
			}
			d = math.Sqrt(d)
			lj[j] = d
			inv := 1 / d
			for i := j + 1; i < pe; i++ {
				li := l[i*n:]
				s := li[j]
				for k := p; k < j; k++ {
					s -= float64(li[k] * lj[k])
				}
				li[j] = s * inv
			}
		}
		if spdErr != nil {
			break
		}
		if pe == n {
			break
		}
		invDiag := make([]float64, pe-p)
		for j := p; j < pe; j++ {
			invDiag[j-p] = 1 / l[j*n+j]
		}
		// The pack completes before the trailing update starts: row i's
		// tiles read the packed columns of every row j <= i.
		par.For(workers, n-pe, grain, func(lo, hi int) {
			panelSolve(l, n, p, pe, invDiag, pe+lo, pe+hi)
			if tiles != nil {
				packPanel(l, n, p, pe, pe+lo, pe+hi)
			}
		})
		par.For(workers, n-pe, grain, func(lo, hi int) {
			trailingUpdate(l, n, p, pe, pe+lo, pe+hi, tiles)
		})
	}
	if spdErr != nil {
		return nil, spdErr
	}
	// Zero the strict upper triangle, packed panels included, so the factor
	// is clean.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l[i*n+j] = 0
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// panelSolve solves rows [lo, hi) of the panel below the diagonal block
// [p, pe): l[i][j] = (l[i][j] − Σ_{k∈[p,j)} l[i][k]·l[j][k]) / l[j][j] for
// j ∈ [p, pe), each sum subtracted one product at a time, k ascending. Rows
// go two per pass, so the pair's two subtraction chains overlap; within a
// row the columns stay sequential, since column j reads columns k < j.
func panelSolve(l []float64, n, p, pe int, invDiag []float64, lo, hi int) {
	i := lo
	for ; i+1 < hi; i += 2 {
		x0 := l[i*n+p : i*n+pe]
		x1 := l[(i+1)*n+p : (i+1)*n+pe]
		for j := range x0 {
			s0, s1 := subDot2(x0[j], x1[j], x0[:j], x1[:j], l[(p+j)*n+p:])
			x0[j], x1[j] = s0*invDiag[j], s1*invDiag[j]
		}
	}
	if i < hi {
		x := l[i*n+p : i*n+pe]
		for j := range x {
			x[j] = subDot(x[j], x[:j], l[(p+j)*n+p:]) * invDiag[j]
		}
	}
}

// packPanel copies the solved panel rows [lo, hi), columns [p, pe),
// transposed into the strict upper triangle: l[(p+k)·n + j] = l[j·n + p+k].
// Row p+k of the matrix then holds, from column pe on, column p+k of the
// panel, so the tiles load one k of four adjacent columns j at once. These
// cells lie above the diagonal (j >= pe > p+k), where nothing else reads or
// writes during the factorization, and chunks write disjoint columns. Rows
// go outer, so each row's panel values are read in one contiguous run while
// the 64 destination lines stay in cache across adjacent rows.
func packPanel(l []float64, n, p, pe, lo, hi int) {
	for j := lo; j < hi; j++ {
		for k, v := range l[j*n+p : j*n+pe] {
			l[(p+k)*n+j] = v
		}
	}
}

// tileFunc updates the block of rows [i, i+tileRows) and columns
// [j, j+t·tileCols) against the panel of nb columns starting at column p:
// l[r][c] −= Σ_k l[r][p+k]·l[p+k][c], one rounded product at a time, k
// ascending, reading the panel's columns packed in rows p..p+nb−1
// (packPanel). Every element of the block lies on or below the diagonal.
type tileFunc func(l []float64, n, p, nb, i, j, t int)

// trailingUpdate subtracts the panel [p, pe)'s contribution from rows
// [lo, hi) of the trailing lower triangle, columns pe through the diagonal:
// l[i][j] −= Σ_{k∈[p,pe)} l[i][k]·l[j][k], one product at a time, k
// ascending. Each group of tileRows rows runs the whole tiles that fit left
// of its first row's diagonal through tiles, then the elements between
// those tiles and each row's diagonal through subRows; rows past the last
// whole group, and every row where tiles is nil, take subRows alone.
func trailingUpdate(l []float64, n, p, pe, lo, hi int, tiles tileFunc) {
	i := lo
	for ; tiles != nil && i+tileRows <= hi; i += tileRows {
		j := pe
		if t := (i + 1 - pe) / tileCols; t > 0 {
			_ = l[(i+tileRows-1)*n+pe+t*tileCols-1] // every cell tiles touches
			tiles(l, n, p, pe-p, i, pe, t)
			j += t * tileCols
		}
		subRows(l, n, p, pe, j, i, i+tileRows)
	}
	subRows(l, n, p, pe, pe, i, hi)
}

// subRows is the trailing update of rows [lo, hi), columns c through each
// row's diagonal, from the unpacked panel rows: rows go in pairs, and each
// pair's shared columns in 2×3 register tiles (subDot2x3).
func subRows(l []float64, n, p, pe, c, lo, hi int) {
	i := lo
	for ; i+1 < hi; i += 2 {
		r0 := l[i*n : i*n+i+1]
		r1 := l[(i+1)*n : (i+1)*n+i+2]
		x0, x1 := r0[p:pe], r1[p:pe]
		j := c
		for ; j+2 <= i; j += 3 {
			subDot2x3(r0[j:j+3], r1[j:j+3], x0, x1,
				l[j*n+p:j*n+pe], l[(j+1)*n+p:(j+1)*n+pe], l[(j+2)*n+p:(j+2)*n+pe])
		}
		// The pair's last one or two shared columns, then the second row's
		// diagonal.
		for ; j <= i; j++ {
			r0[j], r1[j] = subDot2(r0[j], r1[j], x0, x1, l[j*n+p:j*n+pe])
		}
		r1[i+1] = subDot(r1[i+1], x1, x1)
	}
	if i < hi {
		r := l[i*n : i*n+i+1]
		for j := c; j <= i; j++ {
			r[j] = subDot(r[j], r[p:pe], l[j*n+p:j*n+pe])
		}
	}
}

// subDot2x3 is subDot on the 2×3 tile of rows (x0, x1) by rows (y0, y1, y2),
// in place on the accumulators r0[:3] and r1[:3]: the six subtraction
// chains advance together, and each loaded value feeds two or three
// products. Three columns is the widest tile whose loop keeps every value in
// a register on amd64: six accumulators, five loaded values and two copies
// take 13 of the 15 vector registers the Go ABI leaves free, where a 2×4
// tile spills and runs no faster. Inlined into subRows, the loop spilled
// its counter, so it stays out of line.
//
//go:noinline
func subDot2x3(r0, r1, x0, x1, y0, y1, y2 []float64) {
	x1, y0, y1, y2 = x1[:len(x0)], y0[:len(x0)], y1[:len(x0)], y2[:len(x0)]
	r0, r1 = r0[:3], r1[:3]
	s00, s01, s02 := r0[0], r0[1], r0[2]
	s10, s11, s12 := r1[0], r1[1], r1[2]
	for k, a := range x0 {
		b, c0, c1, c2 := x1[k], y0[k], y1[k], y2[k]
		s00 -= float64(a * c0)
		s01 -= float64(a * c1)
		s02 -= float64(a * c2)
		s10 -= float64(b * c0)
		s11 -= float64(b * c1)
		s12 -= float64(b * c2)
	}
	r0[0], r0[1], r0[2] = s00, s01, s02
	r1[0], r1[1], r1[2] = s10, s11, s12
}

// subDot2 is subDot on two rows against one: it returns s0 − Σ x0·y and
// s1 − Σ x1·y, the two chains advancing together. Like subDot2x3 it stays
// out of line, where the loop keeps its counter in a register.
//
//go:noinline
func subDot2(s0, s1 float64, x0, x1, y []float64) (float64, float64) {
	x1, y = x1[:len(x0)], y[:len(x0)]
	for k, c := range y {
		s0 -= float64(x0[k] * c)
		s1 -= float64(x1[k] * c)
	}
	return s0, s1
}

// subDot returns s − Σ_k x[k]·y[k], subtracting one rounded product at a
// time, k ascending. y must be at least as long as x. Here and throughout
// the package each product is converted to float64 before it is added or
// subtracted: the Go spec lets a compiler fuse x*y into an add or subtract
// on some targets (arm64, for one), which would round once instead of
// twice, and an explicit conversion forbids it. So every target computes
// the same bits.
func subDot(s float64, x, y []float64) float64 {
	y = y[:len(x)]
	for k, a := range x {
		s -= float64(a * y[k])
	}
	return s
}

// Solve returns x such that (L·Lᵀ)·x = b via forward and back substitution.
func (c *Cholesky) Solve(b []float64) []float64 {
	if len(b) != c.n {
		panic(fmt.Sprintf("linalg: Cholesky.Solve dimension mismatch: %d vs %d", len(b), c.n))
	}
	n := c.n
	l := c.l
	// Forward: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		li := l[i*n:]
		for k := 0; k < i; k++ {
			s -= float64(li[k] * y[k])
		}
		y[i] = s / li[i]
	}
	// Backward: Lᵀ·x = y.
	x := y // reuse storage
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= float64(l[k*n+i] * x[k])
		}
		x[i] = s / l[i*n+i]
	}
	return x
}

// FactorSPD factors the symmetric positive-(semi)definite matrix m,
// applying an escalating diagonal ridge if the bare factorization fails,
// and returns the factor and the ridge that made it succeed. QuickSel's
// system Q + λAᵀA is PSD and occasionally rank-deficient when subpopulation
// boxes coincide; a relative ridge restores definiteness without visibly
// perturbing the weights. The input is not modified. Callers that keep the
// factor warm across solves (internal/qp.WarmState) must re-apply the same
// ridge when they rebuild the system. workers bounds the factorization's
// goroutines (0 = GOMAXPROCS, 1 = sequential).
func FactorSPD(m *Matrix, workers int) (c *Cholesky, ridge float64, err error) {
	return factorSPD(m, workers, hostTiles())
}

// factorSPD is FactorSPD with the trailing update's tiles.
func factorSPD(m *Matrix, workers int, tiles tileFunc) (c *Cholesky, ridge float64, err error) {
	if m.Rows != m.Cols {
		return nil, 0, fmt.Errorf("linalg: FactorSPD of non-square %d×%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	if n == 0 {
		return &Cholesky{}, 0, nil
	}
	var trace float64
	for i := 0; i < n; i++ {
		trace += m.At(i, i)
	}
	scale := trace / float64(n)
	if scale <= 0 {
		scale = 1
	}
	for attempt := 0; attempt < 12; attempt++ {
		if attempt > 0 {
			ridge = scale * math.Pow(10, float64(attempt-10)) // 1e-9·scale, then ×10 per attempt
		}
		ch, cerr := factor(m, ridge, workers, tiles)
		if cerr == nil {
			return ch, ridge, nil
		}
	}
	return nil, ridge, ErrNotSPD
}
