package predicate

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding for predicates: the write-ahead log's observation records
// are the ingest hot path, so a predicate persists as a compact preorder
// walk of its tree:
//
//	byte kind: 0 All, 1 Leaf, 2 And, 3 Or, 4 Not
//	Leaf:      uvarint col, 8-byte LE lo bits, 8-byte LE hi bits
//	And/Or:    uvarint child count, then each child
//	Not:       the single child
//
// Bounds are raw IEEE-754 bit patterns, so ±Inf (open-ended ranges) and
// every finite float round-trip exactly.

const (
	binAll byte = iota
	binLeaf
	binAnd
	binOr
	binNot
)

// maxBinaryNodes bounds DecodeBinary's tree size, so a corrupt length or
// hostile record cannot allocate without limit.
const maxBinaryNodes = 1 << 20

// AppendBinary appends the predicate's binary encoding to dst and returns
// the extended slice.
func AppendBinary(dst []byte, p *Predicate) []byte {
	switch p.k {
	case kindAll:
		return append(dst, binAll)
	case kindLeaf:
		dst = append(dst, binLeaf)
		dst = binary.AppendUvarint(dst, uint64(p.leaf.Col))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.leaf.Lo))
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.leaf.Hi))
	case kindAnd, kindOr:
		if p.k == kindAnd {
			dst = append(dst, binAnd)
		} else {
			dst = append(dst, binOr)
		}
		dst = binary.AppendUvarint(dst, uint64(len(p.kids)))
		for _, kid := range p.kids {
			dst = AppendBinary(dst, kid)
		}
		return dst
	case kindNot:
		dst = append(dst, binNot)
		return AppendBinary(dst, p.kids[0])
	default:
		// Unreachable for predicates built through the constructors; encode
		// as All so the record stays parseable.
		return append(dst, binAll)
	}
}

// DecodeBinary decodes one predicate from data, returning it and the
// unconsumed remainder.
func DecodeBinary(data []byte) (*Predicate, []byte, error) {
	budget := maxBinaryNodes
	return decodeBinary(data, &budget)
}

func decodeBinary(data []byte, budget *int) (*Predicate, []byte, error) {
	if *budget <= 0 {
		return nil, nil, fmt.Errorf("predicate: binary tree exceeds %d nodes", maxBinaryNodes)
	}
	*budget--
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("predicate: truncated binary predicate")
	}
	kind, data := data[0], data[1:]
	switch kind {
	case binAll:
		return All(), data, nil
	case binLeaf:
		col, n := binary.Uvarint(data)
		if n <= 0 || col > math.MaxInt32 {
			return nil, nil, fmt.Errorf("predicate: bad binary leaf column")
		}
		data = data[n:]
		if len(data) < 16 {
			return nil, nil, fmt.Errorf("predicate: truncated binary leaf bounds")
		}
		lo := math.Float64frombits(binary.LittleEndian.Uint64(data))
		hi := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
		return Range(int(col), lo, hi), data[16:], nil
	case binAnd, binOr:
		count, n := binary.Uvarint(data)
		if n <= 0 || count > uint64(*budget)+1 {
			return nil, nil, fmt.Errorf("predicate: bad binary child count")
		}
		data = data[n:]
		kids := make([]*Predicate, count)
		var err error
		for i := range kids {
			if kids[i], data, err = decodeBinary(data, budget); err != nil {
				return nil, nil, err
			}
		}
		// Route through the constructors so degenerate counts (0 or 1, which
		// the encoder never emits) normalize instead of producing malformed
		// nodes.
		if kind == binAnd {
			return And(kids...), data, nil
		}
		return Or(kids...), data, nil
	case binNot:
		kid, rest, err := decodeBinary(data, budget)
		if err != nil {
			return nil, nil, err
		}
		return Not(kid), rest, nil
	default:
		return nil, nil, fmt.Errorf("predicate: unknown binary node kind %d", kind)
	}
}

// AppendObservation appends one write-ahead-log observation payload to dst:
// the 8-byte LE bits of the observed selectivity, then the predicate's
// binary encoding. The estimator's log stores exactly these bytes, and the
// registry's log stores them after an estimator-name prefix.
func AppendObservation(dst []byte, p *Predicate, sel float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(sel))
	return AppendBinary(dst, p)
}

// DecodeObservation decodes AppendObservation's output. Bytes after the
// predicate are an error: a payload holds exactly one observation.
func DecodeObservation(data []byte) (*Predicate, float64, error) {
	if len(data) < 8 {
		return nil, 0, fmt.Errorf("predicate: truncated observation selectivity")
	}
	sel := math.Float64frombits(binary.LittleEndian.Uint64(data))
	p, rest, err := DecodeBinary(data[8:])
	if err != nil {
		return nil, 0, err
	}
	if len(rest) != 0 {
		return nil, 0, fmt.Errorf("predicate: %d trailing bytes after observation", len(rest))
	}
	return p, sel, nil
}
