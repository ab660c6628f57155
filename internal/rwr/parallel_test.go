package rwr

import (
	"math/rand"
	"testing"

	"tpa/internal/graph"
	"tpa/internal/sparse"
)

func shardTestWalk(t *testing.T, seed int64, policy graph.DanglingPolicy) *graph.Walk {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < 900; i++ {
		b.AddEdge(rng.Intn(150), rng.Intn(150))
	}
	return graph.NewWalk(b.Build(), policy)
}

func TestShardedMatchesSerial(t *testing.T) {
	for _, policy := range []graph.DanglingPolicy{graph.DanglingSelfLoop, graph.DanglingDrop, graph.DanglingUniform} {
		w := shardTestWalk(t, 61, policy)
		rng := rand.New(rand.NewSource(62))
		for _, workers := range []int{2, 3, 8} {
			op := Sharded(w, workers)
			if op == Operator(w) {
				t.Fatalf("policy %v workers %d: Sharded did not wrap a BlockOperator", policy, workers)
			}
			x := sparse.NewVector(w.N())
			for i := range x {
				x[i] = rng.Float64()
			}
			want := w.MulT(x, sparse.NewVector(w.N()))
			got := op.MulT(x, sparse.NewVector(w.N()))
			if d := want.L1Dist(got); d > 1e-12 {
				t.Errorf("policy %v workers %d: sharded MulT deviates by %g", policy, workers, d)
			}
			// Each row is gathered by one goroutine in a fixed order, so
			// repeated runs agree bit for bit whatever the scheduling.
			for rep := 0; rep < 3; rep++ {
				again := op.MulT(x, sparse.NewVector(w.N()))
				for i := range got {
					if again[i] != got[i] {
						t.Fatalf("policy %v workers %d: run %d row %d: %g vs %g",
							policy, workers, rep, i, again[i], got[i])
					}
				}
			}
		}
	}
}

// plainOp is an Operator with no block support.
type plainOp struct{ n int }

func (p plainOp) N() int                                { return p.n }
func (p plainOp) MulT(x, y sparse.Vector) sparse.Vector { copy(y, x); return y }

func TestShardedFallsBack(t *testing.T) {
	op := plainOp{n: 10}
	if got := Sharded(op, 4); got != Operator(op) {
		t.Error("non-block operator was wrapped")
	}
	w := shardTestWalk(t, 63, graph.DanglingSelfLoop)
	if got := Sharded(w, 1); got != Operator(w) {
		t.Error("workers=1 should return the operator unchanged")
	}
	// More workers than nodes clamp to the node count: a one-node graph
	// runs unsharded and still applies its dangling self-loop.
	one := graph.NewWalk(graph.FromEdges(1, nil), graph.DanglingSelfLoop)
	op1 := Sharded(one, 3)
	if op1 != Operator(one) {
		t.Error("workers > n on a one-node graph was wrapped")
	}
	if y := op1.MulT(sparse.Vector{1}, sparse.NewVector(1)); y[0] != 1 {
		t.Errorf("one-node MulT = %v, want [1]", y)
	}
}
