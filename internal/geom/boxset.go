package geom

// This file implements operations on unions of boxes. Query predicates with
// disjunctions and negations lower to unions of boxes (internal/predicate),
// and ISOMER's bucket maintenance needs exact box subtraction so that every
// bucket is fully inside or fully outside each predicate (Appendix B of the
// paper requires 0/1 overlap for iterative scaling).

// Subtract decomposes a \ b into at most 2d disjoint boxes whose union is
// exactly the part of a not covered by b. The decomposition peels one slab
// per dimension: below b, above b, then recurses into the middle. The
// returned boxes are pairwise disjoint and lie inside a.
func Subtract(a, b Box) []Box {
	inter, ok := a.Intersect(b)
	if !ok {
		if a.IsEmpty() {
			return nil
		}
		return []Box{a.Clone()}
	}
	if inter.Equal(a) {
		return nil // a fully covered
	}
	var out []Box
	rest := a.Clone()
	for i := 0; i < a.Dim(); i++ {
		// Slab strictly below the intersection in dimension i.
		if rest.Lo[i] < inter.Lo[i] {
			below := rest.Clone()
			below.Hi[i] = inter.Lo[i]
			if !below.IsEmpty() {
				out = append(out, below)
			}
			rest.Lo[i] = inter.Lo[i]
		}
		// Slab strictly above the intersection in dimension i.
		if rest.Hi[i] > inter.Hi[i] {
			above := rest.Clone()
			above.Lo[i] = inter.Hi[i]
			if !above.IsEmpty() {
				out = append(out, above)
			}
			rest.Hi[i] = inter.Hi[i]
		}
	}
	return out
}

// SubtractAll returns the part of a not covered by any box in bs, as a set
// of disjoint boxes.
func SubtractAll(a Box, bs []Box) []Box {
	remain := []Box{a}
	for _, b := range bs {
		var next []Box
		for _, r := range remain {
			next = append(next, Subtract(r, b)...)
		}
		remain = next
		if len(remain) == 0 {
			break
		}
	}
	return remain
}

// Disjointify converts an arbitrary collection of boxes into a set of
// pairwise-disjoint boxes covering exactly the same region. Boxes are added
// one at a time, keeping only the part not already covered.
func Disjointify(boxes []Box) []Box {
	var out []Box
	for _, b := range boxes {
		if b.IsEmpty() {
			continue
		}
		pieces := []Box{b}
		for _, existing := range out {
			var next []Box
			for _, p := range pieces {
				next = append(next, Subtract(p, existing)...)
			}
			pieces = next
			if len(pieces) == 0 {
				break
			}
		}
		out = append(out, pieces...)
	}
	return out
}

// UnionVolume returns the exact volume of the union of the boxes. It runs in
// O(k² · 2d) for k boxes via incremental disjoint decomposition, which is
// ample for predicate DNF terms (typically a handful of boxes).
func UnionVolume(boxes []Box) float64 {
	var v float64
	for _, b := range Disjointify(boxes) {
		v += b.Volume()
	}
	return v
}

// CoversPoint reports whether any box in the set contains p.
func CoversPoint(boxes []Box, p []float64) bool {
	for _, b := range boxes {
		if b.Contains(p) {
			return true
		}
	}
	return false
}
