package core

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers, so estimate can run estimateAVX2. It is probed once, when the
// package is initialized.
var haveAVX2 = detectAVX2()

// detectAVX2 reads CPUID leaf 1 for OSXSAVE and AVX, XGETBV for the XMM and
// YMM state the OS enables, and CPUID leaf 7 for AVX2.
func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // leaf 1 ECX
		avx     = 1 << 28 // leaf 1 ECX
		avx2    = 1 << 5  // leaf 7 EBX
		xmmYmm  = 1<<1 | 1<<2
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// estimateAVX2 scans the four-lane layout with scanAVX2: four kernels per
// instruction. Call it only where haveAVX2 holds.
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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
