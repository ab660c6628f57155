package tpa

import (
	"fmt"

	"tpa/internal/core"
	"tpa/internal/graph"
	"tpa/internal/reorder"
	"tpa/internal/shard"
)

// shardLPRounds is the label-propagation sweep count NewSharded uses to
// discover community structure before cutting shard boundaries — the same
// default as the NB-LIN partitioner.
const shardLPRounds = 10

// NewSharded is New with the graph laid out in shards contiguous,
// community-aligned node ranges: label propagation finds communities, they
// are merged into exactly shards balanced groups, and the graph is
// relabeled so each group occupies one id range. Node ids remain the
// caller's, remapped at the API boundary exactly like Options.Order. The
// shard boundaries are kept as layout metadata (NumShards, ShardLayout,
// the TPAM shards section); they do not change how the engine computes.
// Preprocessing splits its matvec over Options.Workers edge-balanced
// blocks and queries run the same serial kernel as an unsharded engine,
// so answers agree with one to float-summation order.
//
// shards ≤ 1 builds a plain engine. Sharding supplies its own layout, so it
// cannot combine with Options.Order, and sharded engines reject ApplyEdges
// — rebuild to mutate.
func NewSharded(g *Graph, shards int, o Options) (*Engine, error) {
	if shards <= 1 {
		return New(g, o)
	}
	if ord, err := reorder.ParseOrder(o.Order); err != nil {
		return nil, fmt.Errorf("tpa: %w", err)
	} else if ord != reorder.OrderNatural {
		return nil, fmt.Errorf("tpa: Options.Order %q cannot combine with sharding (the shard plan is the ordering)", o.Order)
	}
	cfg, params := o.split()
	plan, err := shard.PlanShards(g, shards, shardLPRounds)
	if err != nil {
		return nil, fmt.Errorf("tpa: sharding: %w", err)
	}
	pg := g
	var inv []int32
	if plan.Perm != nil {
		if pg, err = graph.Permute(g, plan.Perm); err != nil {
			return nil, fmt.Errorf("tpa: sharding: %w", err)
		}
		inv = graph.InvertPermutation(plan.Perm)
	}
	w := graph.NewWalk(pg, graph.DanglingSelfLoop)
	tp, err := core.PreprocessParallel(w, cfg, params, o.Workers)
	if err != nil {
		return nil, fmt.Errorf("tpa: preprocessing: %w", err)
	}
	if err := tp.SetPrecision(o.Precision); err != nil {
		return nil, fmt.Errorf("tpa: %w", err)
	}
	e := &Engine{tpa: tp, walk: w, shardBounds: plan.Bounds, workers: o.Workers,
		perm: plan.Perm, inv: inv}
	e.applyMutationOpts(o)
	return e, nil
}

// NumShards returns the number of shards in the engine's node layout: 1
// for unsharded engines.
func (e *Engine) NumShards() int {
	if e.shardBounds == nil {
		return 1
	}
	return len(e.shardBounds) - 1
}

// ShardLayout returns per-shard node and out-edge counts (indexed by shard),
// or nil for unsharded engines. For introspection, stats endpoints and
// tests; the counts describe the internal (shard-contiguous) layout and are
// read off the CSR row pointers in O(1) per shard.
func (e *Engine) ShardLayout() (nodes []int, edges []int64) {
	if e.shardBounds == nil {
		return nil, nil
	}
	outPtr, _ := e.walk.Graph().RawCSR()
	k := len(e.shardBounds) - 1
	nodes = make([]int, k)
	edges = make([]int64, k)
	for i := range nodes {
		lo, hi := e.shardBounds[i], e.shardBounds[i+1]
		nodes[i] = hi - lo
		edges[i] = outPtr[hi] - outPtr[lo]
	}
	return nodes, edges
}
