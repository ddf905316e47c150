package core

// estimateAVX2 scans the four-lane layout with scanAVX2: four kernels per
// instruction. Call it only where cpu.AVX2 holds.
func (c *compiledModel) estimateAVX2(lo, hi []float64) float64 {
	return scanAVX2(c.lo, c.hi, c.wOverV, lo[:c.dim], hi[:c.dim])
}

// scanAVX2 returns Σ_j w[j]·|B ∩ G_j|/|G_j| over the groups of four lanes
// in lo, hi and w, for a query of len(qlo) dimensions; see
// compiledModel.estimate for why every lane's product and the sum keep the
// float scan's bits. len(w) is a multiple of four, and lo and hi hold
// len(w)·len(qlo) corners.
//
//go:noescape
func scanAVX2(lo, hi []int64, w, qlo, qhi []float64) float64
