package linalg

// tilesAVX2 is the tileFunc that updates four columns per instruction: per
// tile, eight four-lane accumulators (four rows by two registers), and per
// k one broadcast of each row's l[r][p+k], multiplied (VMULPD) by the two
// packed registers and subtracted (VSUBPD) from the accumulators. It uses
// no fused multiply-subtract, which would round once instead of twice. Call
// it only where cpu.AVX2 holds, with every cell it touches inside l.
//
//go:noescape
func tilesAVX2(l []float64, n, p, nb, i, j, t int)

// gramAVX2 is the gramFunc that adds four columns' products per
// instruction: per group of gramLanes columns, four four-lane accumulators,
// and per entry one broadcast of vals[e], multiplied (VMULPD) by the group's
// packed row ks[e] and added (VADDPD) to the accumulators. Call it only
// where cpu.AVX2 holds.
//
//go:noescape
func gramAVX2(dst, packed []float64, ks []int, vals []float64, stride int)
