package graph_test

import (
	"math/rand"
	"testing"

	"tpa/internal/graph"
	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// These tests run a Walk's block kernel (MulTPrep/MulTBlock over
// BlockBounds) the way preprocessing does: fanned out over goroutines by
// rwr.Sharded. They live in the external test package because rwr imports
// graph.

func parallelTestGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilderN(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

func TestParallelWalkMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, policy := range []graph.DanglingPolicy{graph.DanglingSelfLoop, graph.DanglingDrop, graph.DanglingUniform} {
		for _, workers := range []int{1, 2, 4, 7} {
			g := parallelTestGraph(rng, 120, 700)
			serial := graph.NewWalk(g, policy)
			if bounds := serial.BlockBounds(workers); len(bounds) != workers+1 {
				t.Fatalf("workers = %d, want %d", len(bounds)-1, workers)
			}
			parallel := rwr.Sharded(serial, workers)
			for trial := 0; trial < 5; trial++ {
				x := sparse.NewVector(120)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				want := serial.MulT(x, sparse.NewVector(120))
				got := parallel.MulT(x, sparse.NewVector(120))
				if want.L1Dist(got) > 1e-12 {
					t.Fatalf("policy %v workers %d: parallel deviates by %g",
						policy, workers, want.L1Dist(got))
				}
			}
		}
	}
}

func TestParallelWalkDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := parallelTestGraph(rng, 200, 1500)
	w := rwr.Sharded(graph.NewWalk(g, graph.DanglingSelfLoop), 4)
	x := sparse.NewVector(200)
	for i := range x {
		x[i] = rng.Float64()
	}
	a := w.MulT(x, sparse.NewVector(200))
	b := w.MulT(x, sparse.NewVector(200))
	if a.L1Dist(b) != 0 {
		t.Fatal("parallel MulT not deterministic")
	}
}

func TestParallelWalkDefaultsWorkers(t *testing.T) {
	g := graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0}})
	w := graph.NewWalk(g, graph.DanglingSelfLoop)
	if bounds := w.BlockBounds(0); len(bounds)-1 < 1 {
		t.Fatalf("workers = %d", len(bounds)-1)
	}
	// More workers than nodes must clamp.
	if bounds := w.BlockBounds(99); len(bounds)-1 > g.NumNodes() {
		t.Fatalf("workers %d exceed nodes", len(bounds)-1)
	}
	// Both the GOMAXPROCS default and the clamped count still compute Ãᵀ·x.
	x := sparse.Vector{0.1, 0.2, 0.3, 0.15, 0.25}
	want := w.MulT(x, sparse.NewVector(5))
	for _, workers := range []int{0, 99} {
		got := rwr.Sharded(w, workers).MulT(x, sparse.NewVector(5))
		if d := want.L1Dist(got); d > 1e-12 {
			t.Fatalf("workers %d: parallel deviates by %g", workers, d)
		}
	}
}

func TestParallelWalkTinyGraph(t *testing.T) {
	g := graph.FromEdges(1, nil) // single isolated node
	w := rwr.Sharded(graph.NewWalk(g, graph.DanglingSelfLoop), 3)
	x := sparse.Vector{1}
	y := w.MulT(x, sparse.NewVector(1))
	if y[0] != 1 {
		t.Fatalf("y = %v", y)
	}
}
