package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"quicksel/internal/cpu"
	"quicksel/internal/par"
)

// NewCholesky factors the symmetric positive-definite matrix m on all
// available cores with the host's tiles. It returns ErrNotSPD if a pivot is
// non-positive at working precision. The input is not modified.
func NewCholesky(m *Matrix) (*Cholesky, error) { return NewCholeskyWorkers(m, 0) }

// NewCholeskyWorkers is NewCholesky with an explicit worker count (0 =
// GOMAXPROCS, 1 = sequential).
func NewCholeskyWorkers(m *Matrix, workers int) (*Cholesky, error) {
	return factor(m, 0, workers, hostTiles())
}

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
			d -= float64(l[j*n+k] * l[j*n+k])
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
				s -= float64(li[k] * lj[k])
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

// referenceGram is the Gram product without packing: for each row i, each k
// with m[k][i] ≠ 0 adds (scale·m[k][i])·m[k][j] to dst[i][j] for j >= i,
// then the upper triangle is mirrored. The packed paths must reproduce it
// bit for bit, and it is the baseline they are timed against.
func referenceGram(m, dst *Matrix, scale float64, workers int) {
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
					di[j] += float64(sri * row[j])
				}
			}
		}
	})
	par.For(workers, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := i + 1; j < n; j++ {
				dst.Data[j*n+i] = dst.Data[i*n+j]
			}
		}
	})
}

// factorPath is one trailing update of the factor, called by name: the
// AVX2 tiles, which run only where the host has AVX2, and the scalar 2×3
// tiles over the unpacked panel (nil tiles), which every other host runs
// and which the AVX2 tiles are timed against.
type factorPath struct {
	name  string
	tiles tileFunc
}

var factorPaths = []factorPath{{"avx2", tilesAVX2}, {name: "scalar"}}

// gramPath is one Gram product, called by name: the AVX2 groups, which run
// only where the host has AVX2; their pure-Go twin, which every other host
// runs; and referenceGram (nil gram), the baseline both are timed against.
type gramPath struct {
	name string
	gram gramFunc
}

var gramPaths = []gramPath{{"avx2", gramAVX2}, {"go", gramGo}, {name: "scalar"}}

// available reports whether this host can run the path named name.
func available(name string) bool { return name != "avx2" || cpu.AVX2() }

// addScaledGram accumulates scale·mᵀm into dst through the path's Gram.
func (p gramPath) addScaledGram(m, dst *Matrix, scale float64, workers int) {
	if p.gram == nil {
		referenceGram(m, dst, scale, workers)
		return
	}
	m.addScaledGram(dst, scale, workers, p.gram)
}

// choleskySizes straddle the block width so partial panels, exact panels
// and multi-panel trailing updates are all exercised. 2·choleskyBlock
// through 3·choleskyBlock−1 take every residue of the panel width, and so
// of the tile width: 0–7 columns left of a row's diagonal after its whole
// 8-column tiles, and every width of the last, partial panel. Row chunks
// of varying length, across the worker counts, leave 0–3 rows after a
// chunk's 4-row groups, and subRows an odd row after its row pairs and
// zero, one or two columns after a pair's 2×3 tiles.
var choleskySizes = func() []int {
	sizes := []int{1, 2, 3, 5, 7, 8, 9, choleskyBlock - 1, choleskyBlock, choleskyBlock + 1}
	for n := 2 * choleskyBlock; n < 3*choleskyBlock; n++ {
		sizes = append(sizes, n)
	}
	return append(sizes, 200, 257, 300, 513)
}()

func TestBlockedCholeskyBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range choleskySizes {
		m := randomSPD(rng, n)
		want, err := referenceCholesky(m)
		if err != nil {
			t.Fatalf("n=%d: reference: %v", n, err)
		}
		for _, path := range factorPaths {
			if !available(path.name) {
				continue
			}
			for _, workers := range []int{1, 2, 3, 8} {
				ch, err := factor(m, 0, workers, path.tiles)
				if err != nil {
					t.Fatalf("n=%d %s workers=%d: %v", n, path.name, workers, err)
				}
				checkFactor(t, fmt.Sprintf("n=%d %s workers=%d", n, path.name, workers), ch.l, want)
			}
		}
	}
}

// checkFactor fails the test unless got has want's bits.
func checkFactor(t *testing.T, what string, got, want []float64) {
	t.Helper()
	n := int(math.Sqrt(float64(len(want))))
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("%s: L[%d][%d] = %v, want %v (not bit-identical)", what, i/n, i%n, v, want[i])
		}
	}
}

// A rank-deficient system fails the bare factorization late, after every
// panel but the last has run its tiles, and FactorSPD's ridge retries then
// succeed. Each path must pick the same ridge and return the reference
// factor of m + ridge·I.
func TestFactorSPDRidgeRetriesBitIdentical(t *testing.T) {
	const n, rank = 320, 240
	rng := rand.New(rand.NewSource(16))
	a := NewMatrix(rank, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for k := 0; k < rank; k++ {
		a.Set(k, n-5, 0) // an exactly zero row and column of m: a zero pivot
	}
	m := NewMatrix(n, n)
	referenceGram(a, m, 1, 1)
	if _, err := referenceCholesky(m); err == nil {
		t.Fatal("the bare reference factorization succeeded; want a rank-deficient m")
	}
	var ridge0 float64
	for _, path := range factorPaths {
		if !available(path.name) {
			continue
		}
		for _, workers := range []int{1, 2, 3, 8} {
			ch, ridge, err := factorSPD(m, workers, path.tiles)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", path.name, workers, err)
			}
			if ridge <= 0 {
				t.Fatalf("%s workers=%d: ridge = %g, want the retries' > 0", path.name, workers, ridge)
			}
			if ridge0 == 0 {
				ridge0 = ridge
			} else if ridge != ridge0 {
				t.Fatalf("%s workers=%d: ridge = %g, another path chose %g", path.name, workers, ridge, ridge0)
			}
			ridged := m.Clone()
			for i := 0; i < n; i++ {
				ridged.Data[i*n+i] += ridge
			}
			want, err := referenceCholesky(ridged)
			if err != nil {
				t.Fatalf("reference at ridge %g: %v", ridge, err)
			}
			checkFactor(t, fmt.Sprintf("%s workers=%d", path.name, workers), ch.l, want)
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

// Both Gram paths equal referenceGram bit for bit, at every column count
// mod gramLanes, with zero, negative and −0 entries, and with A taller than
// one block of gramBlock rows, whole or not. One column of A is all zeros,
// +0 and −0, and its row of dst holds −0: the zero-skip leaves that row's
// −0s as they are, where adding a +0 product would turn them into +0.
func TestAddScaledGramWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shapes := [][2]int{{1, 1}, {3, 7}, {40, 130}, {201, 65},
		{gramBlock, 37}, {gramBlock + 1, 50}, {2*gramBlock + 45, 33}}
	for cols := 2 * gramLanes; cols < 3*gramLanes; cols++ {
		shapes = append(shapes, [2]int{1 + cols%5, cols}, [2]int{23, cols})
	}
	for _, shape := range shapes {
		rows, cols := shape[0], shape[1]
		a := NewMatrix(rows, cols)
		for i := range a.Data {
			a.Data[i] = rng.Float64()*2 - 1
			switch rng.Intn(8) {
			case 0:
				a.Data[i] = 0 // exercise the zero-skip path
			case 1:
				a.Data[i] = math.Copysign(0, -1)
			}
		}
		zc := rng.Intn(cols) // the all-zero column
		for k := 0; k < rows; k++ {
			a.Set(k, zc, math.Copysign(0, float64(k%2)-0.5))
		}
		base := NewMatrix(cols, cols)
		for i := range base.Data {
			base.Data[i] = rng.Float64() // non-zero accumulation target
		}
		for j := 0; j < cols; j++ {
			base.Set(zc, j, math.Copysign(0, -1))
			base.Set(j, zc, math.Copysign(0, -1))
		}
		want := base.Clone()
		referenceGram(a, want, 1.7, 1)
		if !math.Signbit(want.At(zc, zc)) {
			t.Fatalf("%dx%d: the reference turned dst[%d][%d]'s −0 into %v", rows, cols, zc, zc, want.At(zc, zc))
		}
		for _, path := range gramPaths {
			if !available(path.name) {
				continue
			}
			for _, workers := range []int{1, 2, 8} {
				got := base.Clone()
				path.addScaledGram(a, got, 1.7, workers)
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("%dx%d %s workers=%d: dst[%d][%d] = %v, want %v (not bit-identical)",
							rows, cols, path.name, workers, i/cols, i%cols, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// The Gram product allocates its packed copy of at most gramBlock rows of A
// and, per block and row chunk, one list of the block's nonzero rows:
// O(min(rows, gramBlock)·cols + workers·rows), never per row or per group.
// At batch-wide's shape A is one block; an A of 1,000 rows, taller than
// its 400 columns, is packed a block at a time into the same buffer.
func TestGramAllocatesPackedCopy(t *testing.T) {
	for _, shape := range [][2]int{{201, 2000}, {1000, 400}} {
		rows, cols := shape[0], shape[1]
		a := gramMatrix(rand.New(rand.NewSource(17)), rows, cols)
		dst := NewMatrix(cols, cols)
		for _, workers := range []int{1, 2} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			a.AddScaledGramWorkers(dst, 1, workers)
			runtime.ReadMemStats(&after)
			packed := uint64(8 * min(rows, gramBlock) * (cols / gramLanes * gramLanes))
			limit := packed + uint64(16*rows*8*workers) + 64<<10
			if got := after.TotalAlloc - before.TotalAlloc; got > limit {
				t.Fatalf("workers=%d: Gram of a %d×%d A allocated %d bytes, want at most %d (packed copy %d)",
					workers, rows, cols, got, limit, packed)
			}
		}
	}
}

// gramMatrix is an A like batch-wide's: about 80% of its entries nonzero.
func gramMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	a := NewMatrix(rows, cols)
	for i := range a.Data {
		if rng.Intn(5) != 0 {
			a.Data[i] = rng.Float64()
		}
	}
	return a
}

// BenchmarkCholeskyFactor times one blocked factorization — the diagonal
// blocks, the panel solves and the trailing update — at one worker and at
// GOMAXPROCS, with each trailing update: the AVX2 tiles ("avx2", skipped on
// a host without AVX2) and the 2×3 scalar tiles ("scalar").
func BenchmarkCholeskyFactor(b *testing.B) {
	for _, n := range []int{250, 1000, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := randomSPD(rand.New(rand.NewSource(15)), n)
			for _, workers := range []int{1, 0} {
				for _, path := range factorPaths {
					b.Run(fmt.Sprintf("workers=%d/%s", par.Workers(workers), path.name), func(b *testing.B) {
						if !available(path.name) {
							b.Skip("this host has no AVX2")
						}
						b.ReportAllocs()
						for b.Loop() {
							if _, err := factor(m, 0, workers, path.tiles); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		})
	}
}

// BenchmarkGram times one λAᵀA accumulation at batch-wide's shape (A of 201
// rows by 2000 subpopulations, ~80% nonzero) at one worker and at
// GOMAXPROCS: the AVX2 groups ("avx2", skipped on a host without AVX2),
// their pure-Go twin ("go") and referenceGram ("scalar").
func BenchmarkGram(b *testing.B) {
	const rows, cols = 201, 2000
	a := gramMatrix(rand.New(rand.NewSource(18)), rows, cols)
	dst := NewMatrix(cols, cols)
	for _, workers := range []int{1, 0} {
		for _, path := range gramPaths {
			b.Run(fmt.Sprintf("a=%dx%d/workers=%d/%s", rows, cols, par.Workers(workers), path.name), func(b *testing.B) {
				if !available(path.name) {
					b.Skip("this host has no AVX2")
				}
				b.ReportAllocs()
				for b.Loop() {
					path.addScaledGram(a, dst, 1.5, workers)
				}
			})
		}
	}
}
