package qp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"quicksel/internal/linalg"
)

// warmProblem builds a QuickSel-shaped instance: an SPD interaction matrix
// Q (unit diagonal plus a small Gram perturbation, like overlapping boxes)
// and n constraint rows with entries in [0,1] (partial intersection ratios).
func warmProblem(rng *rand.Rand, m, n int, lambda float64) *Problem {
	b := linalg.NewMatrix(m, m)
	for i := range b.Data {
		b.Data[i] = 0.1 * rng.NormFloat64()
	}
	q := linalg.NewMatrix(m, m)
	b.AddScaledGram(q, 1)
	for i := 0; i < m; i++ {
		q.Data[i*m+i] += 1
	}
	a := linalg.NewMatrix(n, m)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.Float64()
	}
	return &Problem{Q: q, A: a, S: s, Lambda: lambda, Workers: 1}
}

// extend returns a copy of p with the rows (each scaled by √weight, as the
// cold weighted assembly does) appended to A and the scaled selectivities
// appended to s.
func extend(p *Problem, rows [][]float64, sels, weights []float64) *Problem {
	n, m := p.A.Rows, p.A.Cols
	a := linalg.NewMatrix(n+len(rows), m)
	copy(a.Data, p.A.Data)
	s := append([]float64(nil), p.S...)
	for t, row := range rows {
		r := a.Row(n + t)
		root := math.Sqrt(weights[t])
		for j, v := range row {
			r[j] = root * v
		}
		s = append(s, root*sels[t])
	}
	return &Problem{Q: p.Q, A: a, S: s, Lambda: p.Lambda, Workers: 1}
}

func relErr(got, want []float64) float64 {
	var diff2, ref2 float64
	for i := range want {
		d := got[i] - want[i]
		diff2 += d * d
		ref2 += want[i] * want[i]
	}
	return math.Sqrt(diff2) / (1 + math.Sqrt(ref2))
}

func TestWarmBaseSolveBitIdenticalToCold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := warmProblem(rng, 25, 9, 0)
	cold, ws, err := SolveAnalytic(p)
	if err != nil {
		t.Fatal(err)
	}
	warm := ws.Solve()
	for i := range cold {
		if warm[i] != cold[i] {
			t.Fatalf("warm base solve differs from cold at %d: %v vs %v", i, warm[i], cold[i])
		}
	}
	if ws.Dim() != 25 || ws.Edits() != 0 {
		t.Fatalf("unexpected warm state: dim=%d edits=%d", ws.Dim(), ws.Edits())
	}
}

func TestWarmAddRowMatchesColdAcrossSeedsAndSizes(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, m := range []int{5, 20, 60} {
			for _, batch := range []int{1, 4, 16} {
				rng := rand.New(rand.NewSource(seed))
				p := warmProblem(rng, m, m/2+1, 0) // default λ = 1e6
				_, ws, err := SolveAnalytic(p)
				if err != nil {
					t.Fatal(err)
				}
				rows := make([][]float64, batch)
				sels := make([]float64, batch)
				weights := make([]float64, batch)
				for tB := range rows {
					row := make([]float64, m)
					for j := range row {
						row[j] = rng.Float64()
					}
					rows[tB], sels[tB] = row, rng.Float64()
					weights[tB] = float64(1 + tB%3) // exercise weighted rows too
					ws.AddRow(row, sels[tB], weights[tB])
				}
				got := ws.Solve()
				want, _, err := SolveAnalytic(extend(p, rows, sels, weights))
				if err != nil {
					t.Fatal(err)
				}
				if e := relErr(got, want); e > 1e-7 {
					t.Fatalf("seed=%d m=%d batch=%d: warm vs cold rel err %g", seed, m, batch, e)
				}
				if ws.Edits() != batch {
					t.Fatalf("edits = %d, want %d", ws.Edits(), batch)
				}
			}
		}
	}
}

func TestWarmRemoveRowMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := 30
	p := warmProblem(rng, m, 10, 0)
	_, ws, err := SolveAnalytic(p)
	if err != nil {
		t.Fatal(err)
	}
	keep := make([]float64, m)
	drop := make([]float64, m)
	for j := 0; j < m; j++ {
		keep[j], drop[j] = rng.Float64(), rng.Float64()
	}
	ws.AddRow(drop, 0.7, 2)
	ws.AddRow(keep, 0.3, 1)
	if err := ws.RemoveRow(drop, 0.7, 2); err != nil {
		t.Fatalf("RemoveRow: %v", err)
	}
	got := ws.Solve()
	want, _, err := SolveAnalytic(extend(p, [][]float64{keep}, []float64{0.3}, []float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(got, want); e > 1e-7 {
		t.Fatalf("warm remove vs cold rel err %g", e)
	}
}

func TestWarmRidgePathMatchesColdAtSameRidge(t *testing.T) {
	// A rank-deficient system (zero Q, wide A) forces the escalating ridge.
	rng := rand.New(rand.NewSource(7))
	m, n := 12, 4
	p := warmProblem(rng, m, n, 0)
	p.Q = linalg.NewMatrix(m, m)
	_, ws, err := SolveAnalytic(p)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Ridge() <= 0 {
		t.Fatalf("ridge = %g, want > 0 for a singular system", ws.Ridge())
	}
	row := make([]float64, m)
	for j := range row {
		row[j] = rng.Float64()
	}
	ws.AddRow(row, 0.5, 1)
	got := ws.Solve()
	// Cold reference at the SAME ridge the warm factor carries: assemble the
	// extended system, add ridge·I, one plain factorization. (A cold FactorSPD
	// would pick its own ridge from the new trace; that difference is the
	// cold path's, not the warm path's.)
	ext := extend(p, [][]float64{row}, []float64{0.5}, []float64{1})
	mat, rhs := ext.assemble()
	for i := 0; i < m; i++ {
		mat.Data[i*m+i] += ws.Ridge()
	}
	ch, ridge, err := linalg.FactorSPD(mat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ridge != 0 {
		t.Fatalf("the cold factorization at the warm ridge needed a further ridge %g", ridge)
	}
	want := ch.Solve(rhs)
	if e := relErr(got, want); e > 1e-6 {
		t.Fatalf("warm ridge path vs cold-at-same-ridge rel err %g", e)
	}
}

func TestWarmRemoveForeignRowFails(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := warmProblem(rng, 10, 4, 0)
	_, ws, err := SolveAnalytic(p)
	if err != nil {
		t.Fatal(err)
	}
	// Removing a row that was never added (with a large weight) must lose
	// definiteness and report it rather than corrupt silently.
	row := make([]float64, 10)
	for j := range row {
		row[j] = 1
	}
	if err := ws.RemoveRow(row, 0.9, 100); err == nil {
		t.Fatal("RemoveRow of a foreign heavy row must fail")
	}
}

func TestWarmCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := warmProblem(rng, 8, 3, 0)
	_, ws, err := SolveAnalytic(p)
	if err != nil {
		t.Fatal(err)
	}
	base := ws.Solve()
	cl := ws.Clone()
	row := make([]float64, 8)
	for j := range row {
		row[j] = rng.Float64()
	}
	ws.AddRow(row, 0.4, 1)
	after := cl.Solve()
	for i := range base {
		if base[i] != after[i] {
			t.Fatalf("editing the original changed the clone at %d", i)
		}
	}
	if cl.Edits() != 0 || ws.Edits() != 1 {
		t.Fatalf("edits: clone=%d orig=%d", cl.Edits(), ws.Edits())
	}
}

// factorBits returns the bits of the warm state's Cholesky factor, read by
// reflection because linalg keeps the factor's storage unexported.
func factorBits(ws *WarmState) []uint64 {
	l := reflect.ValueOf(ws.chol).Elem().FieldByName("l")
	bits := make([]uint64, l.Len())
	for i := range bits {
		bits[i] = math.Float64bits(l.Index(i).Float())
	}
	return bits
}

// randomRows returns k constraint rows of length m with their selectivities
// and weights (1, 2 or 3, so the √weight scaling is exercised).
func randomRows(rng *rand.Rand, k, m int) (rows [][]float64, sels, weights []float64) {
	rows = make([][]float64, k)
	sels = make([]float64, k)
	weights = make([]float64, k)
	for r := range rows {
		rows[r] = make([]float64, m)
		for j := range rows[r] {
			rows[r][j] = rng.Float64()
		}
		sels[r], weights[r] = rng.Float64(), float64(1+r%3)
	}
	return rows, sels, weights
}

// Folding a suffix of rows in one AddRows call leaves the factor and the
// right-hand side with exactly the bits of adding the rows one at a time.
func TestWarmAddRowsBitIdenticalToAddRow(t *testing.T) {
	for _, m := range []int{1, 7, 60} {
		for _, k := range []int{1, 3, 4, 5, 9, 16} {
			rng := rand.New(rand.NewSource(int64(100*m + k)))
			_, base, err := SolveAnalytic(warmProblem(rng, m, m/2+1, 0))
			if err != nil {
				t.Fatal(err)
			}
			rows, sels, weights := randomRows(rng, k, m)
			want := base.Clone()
			for r := range rows {
				want.AddRow(rows[r], sels[r], weights[r])
			}
			got := base.Clone()
			got.AddRows(rows, sels, weights)
			if !reflect.DeepEqual(factorBits(got), factorBits(want)) {
				t.Fatalf("m=%d k=%d: factor differs from successive AddRow", m, k)
			}
			for i := range want.rhs {
				if math.Float64bits(got.rhs[i]) != math.Float64bits(want.rhs[i]) {
					t.Fatalf("m=%d k=%d: rhs[%d] = %v, want %v", m, k, i, got.rhs[i], want.rhs[i])
				}
			}
			if got.Edits() != k {
				t.Fatalf("m=%d k=%d: edits = %d", m, k, got.Edits())
			}
		}
	}
}

// BenchmarkWarmAddRows folds a batch of 64 constraint rows into the warm
// state of an m=1000 system: one multi-vector sweep of the factor.
func BenchmarkWarmAddRows(b *testing.B) {
	const m, batch = 1000, 64
	rng := rand.New(rand.NewSource(16))
	_, base, err := SolveAnalytic(warmProblem(rng, m, m/10, 0))
	if err != nil {
		b.Fatal(err)
	}
	rows, sels, weights := randomRows(rng, batch, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ws := base.Clone()
		b.StartTimer()
		ws.AddRows(rows, sels, weights)
	}
}
