package graph

import "tpa/internal/sparse"

// MulTPrep is the serial prologue of one blockwise application of Ãᵀ to x:
// it reduces the per-application state every block needs — here the uniform
// dangling term under DanglingUniform (0 for the other policies). Callers
// run it once per matvec and hand the result to every MulTBlock call for
// that x, so the dangling list is scanned once rather than once per block.
func (w *Walk) MulTPrep(x sparse.Vector) float64 {
	if w.policy != DanglingUniform {
		return 0
	}
	var mass float64
	for _, u := range w.dangling {
		mass += x[u]
	}
	return mass / float64(w.g.NumNodes())
}

// MulTBlock computes the destination rows y[lo:hi) of y = Ãᵀ·x, leaving the
// rest of y untouched. uniform must be the value MulTPrep returned for this
// x. A block gathers over the in-adjacency (CSC), so disjoint blocks share
// no output entries and can run concurrently without locking; this is the
// row-block sharding of the CSR sparse-matvec that rwr.Sharded fans out
// over goroutines. Summation order within each row is
// fixed (ascending in-neighbor id), so results are deterministic for a given
// block partition — though they may differ from the serial scatter-order
// MulT in the last bits.
func (w *Walk) MulTBlock(x, y sparse.Vector, lo, hi int, uniform float64) {
	for v := lo; v < hi; v++ {
		var s float64
		for _, u := range w.g.InNeighbors(v) {
			s += x[u] * w.invdeg[u]
		}
		if w.policy == DanglingSelfLoop && w.invdeg[v] == 0 {
			s += x[v]
		}
		y[v] = s + uniform
	}
}

// BlockBounds partitions the destination range [0, N) into at most workers
// contiguous blocks balanced by in-edge count — the work MulTBlock does per
// row. bounds[i] is the first node of block i; bounds[len(bounds)-1] = N.
// rwr.Sharded uses this partition when sharding the operator.
func (w *Walk) BlockBounds(workers int) []int {
	n := w.g.NumNodes()
	if workers > n && n > 0 {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	bounds := make([]int, workers+1)
	per := w.g.NumEdges()/int64(workers) + 1
	b, acc := 1, int64(0)
	for v := 0; v < n && b < workers; v++ {
		acc += int64(w.g.InDegree(v))
		if acc >= per*int64(b) {
			bounds[b] = v + 1
			b++
		}
	}
	for ; b < workers; b++ {
		bounds[b] = n
	}
	bounds[workers] = n
	return bounds
}
