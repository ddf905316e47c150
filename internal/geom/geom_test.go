package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewBoxPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched corners")
		}
	}()
	NewBox([]float64{0, 0}, []float64{1})
}

func TestUnit(t *testing.T) {
	u := Unit(3)
	if u.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", u.Dim())
	}
	if got := u.Volume(); got != 1 {
		t.Fatalf("Volume = %g, want 1", got)
	}
	if !u.Contains([]float64{0, 0.5, 0.999}) {
		t.Error("unit cube should contain interior point")
	}
	if u.Contains([]float64{0, 0.5, 1}) {
		t.Error("half-open cube must exclude upper boundary")
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		b       Box
		wantErr bool
	}{
		{"valid", NewBox([]float64{0}, []float64{1}), false},
		{"degenerate ok", NewBox([]float64{1}, []float64{1}), false},
		{"inverted", NewBox([]float64{2}, []float64{1}), true},
		{"nan lo", NewBox([]float64{math.NaN()}, []float64{1}), true},
		{"nan hi", NewBox([]float64{0}, []float64{math.NaN()}), true},
		{"mismatch", Box{Lo: []float64{0, 0}, Hi: []float64{1}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.b.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestVolume(t *testing.T) {
	tests := []struct {
		name string
		b    Box
		want float64
	}{
		{"unit square", NewBox([]float64{0, 0}, []float64{1, 1}), 1},
		{"rect", NewBox([]float64{0, 0}, []float64{2, 3}), 6},
		{"degenerate", NewBox([]float64{0, 0}, []float64{0, 3}), 0},
		{"inverted reports zero", Box{Lo: []float64{1}, Hi: []float64{0}}, 0},
		{"zero-dim", Box{}, 0},
		{"3d", NewBox([]float64{-1, -1, -1}, []float64{1, 1, 1}), 8},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.b.Volume(); got != tt.want {
				t.Errorf("Volume() = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestIntersect(t *testing.T) {
	a := NewBox([]float64{0, 0}, []float64{2, 2})
	b := NewBox([]float64{1, 1}, []float64{3, 3})
	inter, ok := a.Intersect(b)
	if !ok {
		t.Fatal("expected overlap")
	}
	want := NewBox([]float64{1, 1}, []float64{2, 2})
	if !inter.Equal(want) {
		t.Errorf("Intersect = %v, want %v", inter, want)
	}

	c := NewBox([]float64{5, 5}, []float64{6, 6})
	if _, ok := a.Intersect(c); ok {
		t.Error("disjoint boxes must not intersect")
	}

	// Touching boxes share no volume under half-open semantics.
	d := NewBox([]float64{2, 0}, []float64{4, 2})
	if _, ok := a.Intersect(d); ok {
		t.Error("touching boxes must not intersect")
	}

	if _, ok := a.Intersect(NewBox([]float64{0}, []float64{1})); ok {
		t.Error("dimension mismatch must not intersect")
	}
}

func TestIntersectionVolumeMatchesIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := randomBox(rng, 3)
		b := randomBox(rng, 3)
		var want float64
		if inter, ok := a.Intersect(b); ok {
			want = inter.Volume()
		}
		if got := a.IntersectionVolume(b); math.Abs(got-want) > 1e-12 {
			t.Fatalf("IntersectionVolume = %g, want %g for %v ∩ %v", got, want, a, b)
		}
	}
}

func TestContainsBox(t *testing.T) {
	outer := NewBox([]float64{0, 0}, []float64{4, 4})
	inner := NewBox([]float64{1, 1}, []float64{2, 2})
	if !outer.ContainsBox(inner) {
		t.Error("outer should contain inner")
	}
	if inner.ContainsBox(outer) {
		t.Error("inner should not contain outer")
	}
	if !outer.ContainsBox(outer) {
		t.Error("box should contain itself")
	}
	empty := NewBox([]float64{1, 1}, []float64{1, 1})
	if !outer.ContainsBox(empty) {
		t.Error("empty box is contained in anything of equal dim")
	}
	if outer.ContainsBox(Unit(3)) {
		t.Error("dimension mismatch")
	}
}

func TestClip(t *testing.T) {
	bounds := Unit(2)
	b := NewBox([]float64{-1, 0.5}, []float64{0.5, 2})
	got := b.Clip(bounds)
	want := NewBox([]float64{0, 0.5}, []float64{0.5, 1})
	if !got.Equal(want) {
		t.Errorf("Clip = %v, want %v", got, want)
	}
	// Entirely outside clips to an empty box, never inverted.
	outside := NewBox([]float64{2, 2}, []float64{3, 3})
	clipped := outside.Clip(bounds)
	if err := clipped.Validate(); err != nil {
		t.Errorf("clipped box invalid: %v", err)
	}
	if !clipped.IsEmpty() {
		t.Errorf("clip of disjoint box should be empty, got %v", clipped)
	}
}

func TestCenterAndSide(t *testing.T) {
	b := NewBox([]float64{0, 2}, []float64{4, 6})
	c := b.Center()
	if c[0] != 2 || c[1] != 4 {
		t.Errorf("Center = %v, want [2 4]", c)
	}
	if b.Side(0) != 4 || b.Side(1) != 4 {
		t.Errorf("Side = %g,%g want 4,4", b.Side(0), b.Side(1))
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewBox([]float64{0}, []float64{1})
	c := a.Clone()
	c.Lo[0] = 5
	if a.Lo[0] != 0 {
		t.Error("Clone must not share storage")
	}
}

func TestSquaredDistance(t *testing.T) {
	if d := SquaredDistance([]float64{0, 0}, []float64{3, 4}); d != 25 {
		t.Errorf("SquaredDistance = %g, want 25", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	SquaredDistance([]float64{0}, []float64{1, 2})
}

func TestCenteredBox(t *testing.T) {
	bounds := Unit(2)
	b := CenteredBox([]float64{0.5, 0.5}, []float64{0.25, 0.1}, bounds)
	want := NewBox([]float64{0.25, 0.4}, []float64{0.75, 0.6})
	if !b.Equal(want) {
		t.Errorf("CenteredBox = %v, want %v", b, want)
	}

	// Near the boundary the box clips but stays inside bounds with volume.
	edge := CenteredBox([]float64{0, 1}, []float64{0.2, 0.2}, bounds)
	if !bounds.ContainsBox(edge) {
		t.Errorf("edge box %v escapes bounds", edge)
	}
	if edge.Volume() <= 0 {
		t.Errorf("edge box must keep positive volume, got %v", edge)
	}

	// Zero half-width is widened to keep positive volume.
	thin := CenteredBox([]float64{0.5, 0.5}, []float64{0, 0}, bounds)
	if thin.Volume() <= 0 {
		t.Errorf("degenerate box must be widened, got %v", thin)
	}
}

func TestStringFormat(t *testing.T) {
	b := NewBox([]float64{0, 1}, []float64{1, 2})
	if got, want := b.String(), "[0,1)x[1,2)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// randomBox returns a valid random box inside [0,1)^d.
func randomBox(rng *rand.Rand, d int) Box {
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := 0; i < d; i++ {
		a, b := rng.Float64(), rng.Float64()
		if a > b {
			a, b = b, a
		}
		lo[i], hi[i] = a, b
	}
	return Box{Lo: lo, Hi: hi}
}

// Property: intersection volume is symmetric and bounded by both operands.
func TestPropertyIntersectionSymmetricBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		a := randomBox(r, 4)
		b := randomBox(r, 4)
		ab := a.IntersectionVolume(b)
		ba := b.IntersectionVolume(a)
		if math.Abs(ab-ba) > 1e-15 {
			return false
		}
		return ab <= a.Volume()+1e-15 && ab <= b.Volume()+1e-15 && ab >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a box intersected with itself has its own volume; with its
// bounding union partner the volume never exceeds the bound's volume.
func TestPropertySelfIntersection(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomBox(r, 3)
		return math.Abs(a.IntersectionVolume(a)-a.Volume()) < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Contains is consistent with IntersectionVolume — a point box
// of tiny width centered at a contained point overlaps.
func TestPropertyContainsConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := randomBox(r, 2)
		if b.IsEmpty() {
			return true
		}
		p := b.Center()
		return b.Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIntersectionVolume(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomBox(rng, 4)
	y := randomBox(rng, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.IntersectionVolume(y)
	}
}
