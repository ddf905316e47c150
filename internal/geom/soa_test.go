package geom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randomBoxes(rng *rand.Rand, n, dim int) []Box {
	boxes := make([]Box, n)
	for i := range boxes {
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for d := 0; d < dim; d++ {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			lo[d], hi[d] = a, b
		}
		boxes[i] = Box{Lo: lo, Hi: hi}
	}
	return boxes
}

// BoxSet volumes and intersection volumes must be bit-identical to the Box
// methods on the same corners — training determinism depends on it. Beyond
// random boxes, the cases pin a collapsed side, a shared face, corners at
// exactly 0 and 1, -0 corners, and NaN corners, for which the BoxSet kernels
// must return NaN exactly when Box.IntersectionVolume (math.Min/Max) does.
func TestBoxSetMatchesBoxExactly(t *testing.T) {
	same := func(got, want float64) bool {
		return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
	}
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(42))
	for _, dim := range []int{1, 2, 5, 8} {
		boxes := randomBoxes(rng, 40, dim)
		last := dim - 1
		collapsed := boxes[0].Clone()
		collapsed.Hi[0] = collapsed.Lo[0]
		face := boxes[1].Clone() // shares boxes[1]'s upper face in dimension 0
		face.Lo[0], face.Hi[0] = boxes[1].Hi[0], 2*boxes[1].Hi[0]-boxes[1].Lo[0]
		edges := boxes[2].Clone()
		edges.Lo[0], edges.Hi[last] = 0, 1
		signedZeros := Unit(dim)
		signedZeros.Lo[0] = negZero
		belowZero := Unit(dim) // [-0.5, -0) in dimension 0
		belowZero.Lo[0], belowZero.Hi[0] = -0.5, negZero
		nanLo := boxes[3].Clone()
		nanLo.Lo[0] = math.NaN()
		nanHi := boxes[4].Clone()
		nanHi.Hi[last] = math.NaN()
		boxes = append(boxes, collapsed, face, edges, Unit(dim), signedZeros, belowZero, nanLo, nanHi)
		set := BoxSetOf(boxes)
		if set.Len() != len(boxes) || set.Dim() != dim {
			t.Fatalf("dim=%d: Len/Dim = %d/%d, want %d/%d", dim, set.Len(), set.Dim(), len(boxes), dim)
		}
		for i := range boxes {
			if got, want := set.Volume(i), boxes[i].Volume(); !same(got, want) {
				t.Fatalf("dim=%d: Volume(%d) = %v, want %v", dim, i, got, want)
			}
			b := set.Box(i)
			for k := range dim {
				if !same(b.Lo[k], boxes[i].Lo[k]) || !same(b.Hi[k], boxes[i].Hi[k]) {
					t.Fatalf("dim=%d: Box(%d) round-trip mismatch", dim, i)
				}
			}
			for j := range boxes {
				want := boxes[i].IntersectionVolume(boxes[j])
				if got := set.IntersectionVolume(i, j); !same(got, want) {
					t.Fatalf("dim=%d: IntersectionVolume(%d,%d) = %v, want %v", dim, i, j, got, want)
				}
				if got := set.CornersIntersectionVolume(i, boxes[j].Lo, boxes[j].Hi); !same(got, want) {
					t.Fatalf("dim=%d: CornersIntersectionVolume(%d,%d) = %v, want %v", dim, i, j, got, want)
				}
			}
		}
	}
}

// BenchmarkBoxSetCornersIntersectionVolume times the float kernel, one
// query against every box of the set, and reports ns per kernel. Training
// runs this kernel; serving runs the compiled integer scan, which
// internal/core's BenchmarkCompiledEstimate times against it. The shapes are those of perfbench's point-small (d=2, 300
// kernels) and batch-wide (d=8, 2000) models: the kernel side is the trained
// model's mean, query sides span the workload's widths, and centres cluster
// so that about as many pairs intersect as on that traffic (20% and 80%).
// Queries cycle through a seeded pool of 1024 so the branch predictor cannot
// learn a single one.
func BenchmarkBoxSetCornersIntersectionVolume(b *testing.B) {
	for _, sh := range []struct {
		d, m       int
		spread     float64 // standard deviation of box centres around 0.5
		side       float64 // kernel side
		minW, maxW float64 // query side range
	}{
		{d: 2, m: 300, spread: 0.22, side: 0.13, minW: 0.1, maxW: 0.4},
		{d: 8, m: 2000, spread: 0.125, side: 0.456, minW: 0.2, maxW: 0.5},
	} {
		b.Run(fmt.Sprintf("d=%d/m=%d", sh.d, sh.m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			box := func(minSide, maxSide float64) Box {
				c := make([]float64, sh.d)
				hw := make([]float64, sh.d)
				for k := range c {
					c[k] = min(max(0.5+sh.spread*rng.NormFloat64(), 0), 1)
					hw[k] = (minSide + (maxSide-minSide)*rng.Float64()) / 2
				}
				return CenteredBox(c, hw, Unit(sh.d))
			}
			set := NewBoxSet(sh.d, sh.m)
			for range sh.m {
				set.Append(box(sh.side, sh.side))
			}
			queries := make([]Box, 1024)
			for i := range queries {
				queries[i] = box(sh.minW, sh.maxW)
			}
			var sum float64
			n := 0
			for b.Loop() {
				q := queries[n%len(queries)]
				for j := range sh.m {
					sum += set.CornersIntersectionVolume(j, q.Lo, q.Hi)
				}
				n++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*sh.m), "ns/kernel")
			benchSink = sum
		})
	}
}

var benchSink float64

func TestBoxSetAppendMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Append with wrong dimension should panic")
		}
	}()
	s := NewBoxSet(2, 1)
	s.Append(Unit(3))
}
