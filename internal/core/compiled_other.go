//go:build !amd64

package core

// haveAVX2 is false off amd64: estimate always runs estimateGo.
const haveAVX2 = false

// estimateAVX2 exists on amd64 only; estimate never calls it here.
func (c *compiledModel) estimateAVX2(lo, hi []float64) float64 {
	panic("core: the AVX2 scan is amd64 only")
}
