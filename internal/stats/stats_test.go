package stats

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestRelativeError(t *testing.T) {
	tests := []struct {
		name    string
		trueSel float64
		estSel  float64
		want    float64
	}{
		{"exact", 0.5, 0.5, 0},
		{"half off", 0.5, 0.25, 0.5},
		{"over-estimate", 0.2, 0.4, 1},
		{"zero truth uses epsilon", 0, 0.001, 1},
		{"tiny truth guarded", 0.0001, 0.0011, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := RelativeError(tt.trueSel, tt.estSel); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("RelativeError(%g,%g) = %g, want %g", tt.trueSel, tt.estSel, got, tt.want)
			}
		})
	}
}

func TestAbsoluteError(t *testing.T) {
	if got := AbsoluteError(0.3, 0.5); math.Abs(got-0.2) > 1e-15 {
		t.Errorf("AbsoluteError = %g, want 0.2", got)
	}
	if got := AbsoluteError(0.5, 0.3); math.Abs(got-0.2) > 1e-15 {
		t.Errorf("AbsoluteError must be symmetric, got %g", got)
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Std() != 0 || s.Percentile(50) != 0 {
		t.Error("empty summary should report zeros")
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %g, want 3", s.Mean())
	}
	if s.Max() != 5 {
		t.Errorf("Max = %g, want 5", s.Max())
	}
	if got := s.Percentile(50); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %g, want 1", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
	if math.Abs(s.Std()-math.Sqrt(2)) > 1e-12 {
		t.Errorf("Std = %g, want sqrt(2)", s.Std())
	}
	if s.String() == "" {
		t.Error("String should render")
	}
}

func TestMeanErrorsPanicOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MeanRelativeError([]float64{1}, []float64{1, 2})
}

func TestMeanErrors(t *testing.T) {
	trueS := []float64{0.5, 0.2}
	estS := []float64{0.25, 0.4}
	if got := MeanRelativeError(trueS, estS); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("MeanRelativeError = %g, want 0.75", got)
	}
	if got := MeanAbsoluteError(trueS, estS); math.Abs(got-0.225) > 1e-12 {
		t.Errorf("MeanAbsoluteError = %g, want 0.225", got)
	}
}

// Property: relative error is non-negative and zero iff est == true
// (when truth is above the epsilon guard).
func TestPropertyRelativeErrorNonNegative(t *testing.T) {
	f := func(a, b float64) bool {
		ta := math.Abs(math.Mod(a, 1))
		eb := math.Abs(math.Mod(b, 1))
		re := RelativeError(ta, eb)
		if re < 0 {
			return false
		}
		if ta > Epsilon && ta == eb && re != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentiles are monotone in p.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		var s Summary
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.Add(math.Abs(v))
			}
		}
		if s.N() == 0 {
			return true
		}
		last := s.Percentile(0)
		for p := 10.0; p <= 100; p += 10 {
			cur := s.Percentile(p)
			if cur < last {
				return false
			}
			last = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Std returns the population standard deviation.
func (s *Summary) Std() float64 {
	if s.n == 0 {
		return 0
	}
	m := s.Mean()
	v := s.sumSquares/float64(s.n) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// MeanRelativeError evaluates est against truth over paired slices and
// returns the mean relative error. It panics on length mismatch.
func MeanRelativeError(trueSels, estSels []float64) float64 {
	if len(trueSels) != len(estSels) {
		panic(fmt.Sprintf("stats: length mismatch %d vs %d", len(trueSels), len(estSels)))
	}
	var s Summary
	for i := range trueSels {
		s.Add(RelativeError(trueSels[i], estSels[i]))
	}
	return s.Mean()
}

// MeanAbsoluteError is the absolute-error analogue of MeanRelativeError.
func MeanAbsoluteError(trueSels, estSels []float64) float64 {
	if len(trueSels) != len(estSels) {
		panic(fmt.Sprintf("stats: length mismatch %d vs %d", len(trueSels), len(estSels)))
	}
	var s Summary
	for i := range trueSels {
		s.Add(AbsoluteError(trueSels[i], estSels[i]))
	}
	return s.Mean()
}
