package predicate

import (
	"bytes"
	"math"
	"testing"
)

// fuzzSeedPredicates are hand-built trees covering every node kind, the
// open-ended bounds, and the constructor normalizations (empty/singleton
// And/Or) that make the codecs non-trivial.
func fuzzSeedPredicates() []*Predicate {
	return []*Predicate{
		All(),
		Range(0, 0.25, 0.75),
		AtLeast(2, 1.5),
		AtMost(1, -3),
		And(Range(0, 0, 1), Range(1, 2, 3)),
		Or(Range(0, 0, 1), Not(Range(2, -1, 1)), All()),
		Not(All()),
		Not(Not(Range(0, 0.1, 0.2))),
		And(Or(Range(0, 0, 1), Range(0, 2, 3)), Not(Range(1, 0.5, math.Inf(1)))),
	}
}

// FuzzBinaryRoundTrip feeds arbitrary bytes to DecodeBinary. Inputs that
// fail must fail cleanly (no panic, no unbounded allocation — the node
// budget); inputs that decode must reach a canonical fixed point: the
// re-encoding decodes to a tree that re-encodes byte-identically. The WAL's
// observation records ride this codec, so a corrupt or hostile record must
// never take down replay.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{binAll, 0xff})
	f.Add([]byte{binAnd, 0xff, 0xff, 0xff, 0xff, 0x0f}) // absurd child count
	for _, p := range fuzzSeedPredicates() {
		f.Add(AppendBinary(nil, p))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, rest, err := DecodeBinary(data)
		if err != nil {
			return
		}
		if consumed := len(data) - len(rest); consumed <= 0 || consumed > len(data) {
			t.Fatalf("decode consumed %d bytes of %d", consumed, len(data))
		}
		enc1 := AppendBinary(nil, p)
		p2, rest2, err := DecodeBinary(enc1)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", enc1, err)
		}
		if len(rest2) != 0 {
			t.Fatalf("re-decode left %d bytes", len(rest2))
		}
		enc2 := AppendBinary(nil, p2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding is not a fixed point:\nenc1 %x\nenc2 %x", enc1, enc2)
		}
	})
}

// TestObservationCodec: a WAL observation payload round-trips its
// selectivity bits and predicate, and short or over-long payloads fail.
func TestObservationCodec(t *testing.T) {
	for i, p := range fuzzSeedPredicates() {
		sel := float64(i) / 8
		data := AppendObservation(nil, p, sel)
		got, gotSel, err := DecodeObservation(data)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if gotSel != sel || !bytes.Equal(AppendBinary(nil, got), AppendBinary(nil, p)) {
			t.Fatalf("seed %d: decoded (%v, %v), want (%v, %v)", i, got, gotSel, p, sel)
		}
		if _, _, err := DecodeObservation(data[:7]); err == nil {
			t.Fatalf("seed %d: truncated selectivity decoded", i)
		}
		if _, _, err := DecodeObservation(append(data, 0)); err == nil {
			t.Fatalf("seed %d: trailing byte accepted", i)
		}
	}
}

// FuzzBoxesWhere drives arbitrary WHERE text through Parse and lowers what
// parses both ways: Boxes must return the reference lowering's boxes, bit
// for bit and in the same order (sameBoxes).
func FuzzBoxesWhere(f *testing.F) {
	s := propSchema()
	for _, w := range []string{
		"x >= 2.5 AND y < 1",
		"x >= -0 OR n < 7",
		"n BETWEEN 3.5 AND 7 OR cat IN (1, 2.5, 3)",
		"NOT (x < 5 OR n != 4)",
		"cat = 2 AND NOT (y >= 0 AND x <= 10)",
		"(x > 1 OR y < -2) AND NOT n BETWEEN -1 AND 25",
		"n > 3 AND n < 3 AND x >= 1e9",
		"TRUE AND NOT TRUE OR y <= -5",
	} {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, w string) {
		if len(w) > 512 {
			t.Skip("input over 512 bytes")
		}
		p, err := Parse(s, w)
		if err != nil {
			return
		}
		if msg, ok := sameBoxes(p, s); !ok {
			t.Fatalf("%q parses to %s: %s", w, p, msg)
		}
	})
}
