package rwr

import (
	"runtime"
	"sync"

	"tpa/internal/sparse"
)

// BlockOperator is an Operator whose Ãᵀ application can be evaluated on
// contiguous destination (row) blocks independently: MulTPrep runs once per
// matvec as a serial prologue (e.g. reducing the dangling mass of x) and its
// result is handed to every MulTBlock call of that matvec; MulTBlock fills
// exactly y[lo:hi) and touches nothing else, so disjoint blocks can run on
// separate goroutines with no synchronization. graph.Walk implements it by
// gathering over the in-adjacency; operators that cannot shard (e.g. the
// disk-streamed stream.EdgeFile with its single file cursor) simply don't
// implement it.
type BlockOperator interface {
	Operator
	MulTPrep(x sparse.Vector) float64
	MulTBlock(x, y sparse.Vector, lo, hi int, prep float64)
}

// blockBounder is an optional refinement of BlockOperator: the operator
// proposes its own block partition (e.g. balanced by edge count rather than
// node count). Sharded falls back to equal node ranges otherwise.
type blockBounder interface {
	BlockBounds(workers int) []int
}

// Sharded returns an operator equivalent to op whose MulT shards the
// sparse-matvec over workers goroutines, one contiguous row block each
// (0 means GOMAXPROCS). When op does not implement BlockOperator, or the
// worker count resolves to 1, op itself is returned — callers can request
// sharding unconditionally and pay nothing when it does not apply.
//
// This is the one place that splits a single matvec across goroutines. It
// pays on the dense all-seeds passes of preprocessing and reindexing;
// queries keep the serial scatter kernel, which skips the zeros of their
// sparse early iterates, and parallelize across queries (core's batch
// executor) instead.
func Sharded(op Operator, workers int) Operator {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := op.N(); workers > n {
		workers = n
	}
	bop, ok := op.(BlockOperator)
	if !ok || workers <= 1 {
		return op
	}
	var bounds []int
	if bb, ok := op.(blockBounder); ok {
		bounds = bb.BlockBounds(workers)
	} else {
		n := op.N()
		bounds = make([]int, workers+1)
		for i := 0; i <= workers; i++ {
			bounds[i] = i * n / workers
		}
	}
	return &sharded{op: bop, bounds: bounds}
}

// sharded fans MulT out over a fixed row-block partition of a BlockOperator.
type sharded struct {
	op     BlockOperator
	bounds []int
}

// N returns the node count of the wrapped operator.
func (s *sharded) N() int { return s.op.N() }

// MulT computes y = Ãᵀ·x with one goroutine per row block, after the
// operator's serial per-matvec prologue.
func (s *sharded) MulT(x, y sparse.Vector) sparse.Vector {
	prep := s.op.MulTPrep(x)
	var wg sync.WaitGroup
	for i := 0; i+1 < len(s.bounds); i++ {
		lo, hi := s.bounds[i], s.bounds[i+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			s.op.MulTBlock(x, y, lo, hi, prep)
		}(lo, hi)
	}
	wg.Wait()
	return y
}
