//go:build !amd64

package core

// estimateAVX2 exists on amd64 only; cpu.AVX2 is false here, so estimate
// never calls it.
func (c *compiledModel) estimateAVX2(lo, hi []float64) float64 {
	panic("core: the AVX2 scan is amd64 only")
}
