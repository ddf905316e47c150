// Package par provides the small deterministic parallel-for primitive used
// by QuickSel's training and serving kernels (Q-matrix assembly, the Gram
// accumulation, the blocked Cholesky panels, the clauses of a batch
// estimate).
//
// The contract that makes the parallelism safe to sprinkle over numerical
// code is strict: a body invoked for the chunk [lo, hi) may only write state
// that no other chunk writes. Under that contract the result is bit-identical
// for every worker count — there is no reduction across goroutines, so there
// is no floating-point reassociation. Chunks are claimed dynamically through
// an atomic cursor, which load-balances bodies with uneven per-index cost
// (e.g. triangular matrix rows) without affecting the output.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0), anything else is returned unchanged. Training code
// threads a Workers knob down from the public API and resolves it here, so
// "0" consistently means "use the whole machine" and "1" consistently means
// "sequential".
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// For invokes fn over contiguous chunks covering [0, n), using up to workers
// goroutines (after Workers resolution). grain is the maximum chunk length;
// grain <= 0 selects a default that yields several chunks per worker so
// dynamic claiming can balance uneven loads.
//
// fn must only write state disjoint across chunks; it may freely read shared
// state. For runs fn on the calling goroutine when a single chunk (or a
// single worker) covers the range, so the sequential path has zero overhead
// and is byte-for-byte the code the parallel path runs per chunk.
func For(workers, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if grain <= 0 {
		// A few chunks per worker balances load; clamp so tiny ranges do not
		// shatter into per-index chunks.
		grain = n / (workers * 4)
		if grain < 1 {
			grain = 1
		}
	}
	chunks := (n + grain - 1) / grain
	if workers == 1 || chunks == 1 {
		fn(0, n)
		return
	}
	if workers > chunks {
		workers = chunks
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(cursor.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := c * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}
