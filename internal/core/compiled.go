package core

import "quicksel/internal/geom"

// compiledModel is the immutable serving form of a trained model:
// zero-weight subpopulations pruned, each surviving weight pre-divided by
// its box volume, and box bounds packed into a flat structure-of-arrays
// BoxSet. Estimate reduces to one multiply-add per retained subpopulation
// over two contiguous arrays — no pointer chasing, no allocation, no
// division.
//
// A compiledModel is never mutated after compile, so it can be read
// concurrently; the serving registry swaps whole models atomically and this
// is the state those swaps publish.
type compiledModel struct {
	boxes  *geom.BoxSet
	wOverV []float64 // weight_j / |G_j| per retained subpopulation
}

// compile builds the serving form from trained subpopulations and weights.
// It returns nil when nothing carries weight (the estimate is then 0).
func compile(subpops *geom.BoxSet, weights []float64) *compiledModel {
	nz := 0
	for _, w := range weights {
		if w != 0 {
			nz++
		}
	}
	if nz == 0 {
		return nil
	}
	c := &compiledModel{
		boxes:  geom.NewBoxSet(subpops.Dim(), nz),
		wOverV: make([]float64, 0, nz),
	}
	for j, w := range weights {
		if w == 0 {
			continue
		}
		c.boxes.Append(subpops.Box(j))
		c.wOverV = append(c.wOverV, w/subpops.Volume(j))
	}
	return c
}

// estimate returns Σ_j (w_j/|G_j|)·|B ∩ G_j| for the query corners, which
// need no clip to the unit cube because every G_j lies inside it. The caller
// clamps the result to [0, 1].
func (c *compiledModel) estimate(lo, hi []float64) float64 {
	var est float64
	for j, wv := range c.wOverV {
		est += wv * c.boxes.CornersIntersectionVolume(j, lo, hi)
	}
	return est
}
