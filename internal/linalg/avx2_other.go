//go:build !amd64

package linalg

// tilesAVX2 exists on amd64 only; cpu.AVX2 is false here, so the factor
// never calls it.
func tilesAVX2(l []float64, n, p, nb, i, j, t int) {
	panic("linalg: the AVX2 trailing update is amd64 only")
}

// gramAVX2 exists on amd64 only; cpu.AVX2 is false here, so the Gram
// product never calls it.
func gramAVX2(dst, packed []float64, ks []int, vals []float64, stride int) {
	panic("linalg: the AVX2 Gram product is amd64 only")
}
