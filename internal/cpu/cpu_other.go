//go:build !amd64

package cpu

const avx2 = false
