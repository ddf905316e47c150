package predicate

import "testing"

func twoColSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "a", Kind: Real, Min: 0, Max: 10},
		Column{Name: "b", Kind: Integer, Min: 0, Max: 99},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPredicateBinaryRoundTrip checks that every node kind survives an
// AppendBinary/DecodeBinary cycle with bit-identical lowered boxes — the
// property the write-ahead log's replay path depends on.
func TestPredicateBinaryRoundTrip(t *testing.T) {
	s := twoColSchema(t)
	preds := []*Predicate{
		All(),
		Range(0, 1.25, 7.5),
		AtLeast(0, 3.3), // +Inf upper bound
		AtMost(1, 42),   // -Inf lower bound
		Eq(1, 7),
		In(1, 3, 5, 9),
		And(Range(0, 1, 2), Eq(1, 4)),
		Or(Range(0, 0.1, 0.2), Range(0, 0.5, 0.9)),
		Not(Range(0, 2, 8)),
		And(Not(Eq(1, 2)), Or(Range(0, 0, 5), AtLeast(0, 9.9))),
		Range(0, 0.1+0.2, 3.0000000001), // non-representable decimals must round-trip exactly
	}
	for i, p := range preds {
		data := AppendBinary(nil, p)
		back, rest, err := DecodeBinary(data)
		if err != nil {
			t.Fatalf("pred %d decode %x: %v", i, data, err)
		}
		if len(rest) != 0 {
			t.Fatalf("pred %d: decode left %d bytes", i, len(rest))
		}
		want, err := p.Boxes(s)
		if err != nil {
			t.Fatalf("pred %d boxes: %v", i, err)
		}
		got, err := back.Boxes(s)
		if err != nil {
			t.Fatalf("pred %d decoded boxes: %v", i, err)
		}
		if len(want) != len(got) {
			t.Fatalf("pred %d: %d boxes decoded, want %d", i, len(got), len(want))
		}
		for j := range want {
			for k := 0; k < want[j].Dim(); k++ {
				if want[j].Lo[k] != got[j].Lo[k] || want[j].Hi[k] != got[j].Hi[k] {
					t.Fatalf("pred %d box %d dim %d: [%v,%v) != [%v,%v)", i, j, k,
						got[j].Lo[k], got[j].Hi[k], want[j].Lo[k], want[j].Hi[k])
				}
			}
		}
	}
}
