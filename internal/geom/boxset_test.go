package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSubtractDisjoint(t *testing.T) {
	a := NewBox([]float64{0, 0}, []float64{1, 1})
	b := NewBox([]float64{2, 2}, []float64{3, 3})
	got := Subtract(a, b)
	if len(got) != 1 || !got[0].Equal(a) {
		t.Errorf("Subtract disjoint = %v, want [a]", got)
	}
}

func TestSubtractFullCover(t *testing.T) {
	a := NewBox([]float64{0.2, 0.2}, []float64{0.8, 0.8})
	b := Unit(2)
	if got := Subtract(a, b); len(got) != 0 {
		t.Errorf("Subtract fully covered = %v, want empty", got)
	}
}

func TestSubtractCenterHole(t *testing.T) {
	a := Unit(2)
	hole := NewBox([]float64{0.25, 0.25}, []float64{0.75, 0.75})
	pieces := Subtract(a, hole)
	if len(pieces) != 4 {
		t.Fatalf("center hole should yield 4 slabs, got %d: %v", len(pieces), pieces)
	}
	var vol float64
	for _, p := range pieces {
		vol += p.Volume()
	}
	want := a.Volume() - hole.Volume()
	if math.Abs(vol-want) > 1e-12 {
		t.Errorf("piece volume sum = %g, want %g", vol, want)
	}
	// Pieces must be pairwise disjoint and inside a.
	for i := range pieces {
		if !a.ContainsBox(pieces[i]) {
			t.Errorf("piece %v escapes %v", pieces[i], a)
		}
		if pieces[i].Overlaps(hole) {
			t.Errorf("piece %v overlaps the hole", pieces[i])
		}
		for j := i + 1; j < len(pieces); j++ {
			if pieces[i].Overlaps(pieces[j]) {
				t.Errorf("pieces %v and %v overlap", pieces[i], pieces[j])
			}
		}
	}
}

func TestSubtractEmptyInput(t *testing.T) {
	empty := NewBox([]float64{0, 0}, []float64{0, 0})
	if got := Subtract(empty, Unit(2)); len(got) != 0 {
		t.Errorf("Subtract of empty box = %v, want empty", got)
	}
}

func TestSubtractAll(t *testing.T) {
	a := Unit(2)
	holes := []Box{
		NewBox([]float64{0, 0}, []float64{0.5, 0.5}),
		NewBox([]float64{0.5, 0.5}, []float64{1, 1}),
	}
	remain := SubtractAll(a, holes)
	var vol float64
	for _, r := range remain {
		vol += r.Volume()
	}
	if math.Abs(vol-0.5) > 1e-12 {
		t.Errorf("remaining volume = %g, want 0.5", vol)
	}
}

func TestDisjointifyVolumeConservation(t *testing.T) {
	// Two overlapping unit squares offset by 0.5: union area = 2 - 0.25 = 1.75.
	boxes := []Box{
		NewBox([]float64{0, 0}, []float64{1, 1}),
		NewBox([]float64{0.5, 0.5}, []float64{1.5, 1.5}),
	}
	if got := UnionVolume(boxes); math.Abs(got-1.75) > 1e-12 {
		t.Errorf("UnionVolume = %g, want 1.75", got)
	}
	dis := Disjointify(boxes)
	for i := range dis {
		for j := i + 1; j < len(dis); j++ {
			if dis[i].Overlaps(dis[j]) {
				t.Errorf("Disjointify produced overlapping boxes %v, %v", dis[i], dis[j])
			}
		}
	}
}

func TestUnionVolumeIdenticalBoxes(t *testing.T) {
	b := NewBox([]float64{0, 0}, []float64{1, 2})
	if got := UnionVolume([]Box{b, b, b}); math.Abs(got-2) > 1e-12 {
		t.Errorf("UnionVolume of triplicate = %g, want 2", got)
	}
}

func TestCoversPoint(t *testing.T) {
	boxes := []Box{
		NewBox([]float64{0, 0}, []float64{0.5, 0.5}),
		NewBox([]float64{0.5, 0.5}, []float64{1, 1}),
	}
	if !CoversPoint(boxes, []float64{0.25, 0.25}) {
		t.Error("point in first box should be covered")
	}
	if CoversPoint(boxes, []float64{0.25, 0.75}) {
		t.Error("point in neither box should not be covered")
	}
}

// Property: |a| = |a ∩ b| + |a \ b| (volume is conserved by subtraction).
func TestPropertySubtractConservesVolume(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomBox(r, 3)
		b := randomBox(r, 3)
		var rem float64
		for _, p := range Subtract(a, b) {
			rem += p.Volume()
		}
		return math.Abs(a.Volume()-(a.IntersectionVolume(b)+rem)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Disjointify conserves coverage — random points are covered by
// the disjoint set iff they were covered by the original set.
func TestPropertyDisjointifyCoverage(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		boxes := []Box{randomBox(r, 2), randomBox(r, 2), randomBox(r, 2)}
		dis := Disjointify(boxes)
		for k := 0; k < 50; k++ {
			p := []float64{r.Float64(), r.Float64()}
			if CoversPoint(boxes, p) != CoversPoint(dis, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: union volume never exceeds the sum of volumes and never falls
// below the max individual volume.
func TestPropertyUnionVolumeBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		boxes := []Box{randomBox(r, 2), randomBox(r, 2), randomBox(r, 2)}
		var sum, maxV float64
		for _, b := range boxes {
			sum += b.Volume()
			if b.Volume() > maxV {
				maxV = b.Volume()
			}
		}
		u := UnionVolume(boxes)
		return u <= sum+1e-12 && u >= maxV-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSubtract(b *testing.B) {
	a := Unit(4)
	hole := NewBox([]float64{0.2, 0.2, 0.2, 0.2}, []float64{0.8, 0.8, 0.8, 0.8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Subtract(a, hole)
	}
}
