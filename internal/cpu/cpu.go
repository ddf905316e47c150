// Package cpu probes, once, the instruction-set extensions the Go-assembly
// kernels need, so every kernel picks between its vector routine and its
// Go fallback from the same reading of the CPU.
package cpu

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers. It is false off amd64.
func AVX2() bool { return avx2 }
