package graph

import (
	"math"
	"math/rand"
	"testing"

	"tpa/internal/sparse"
)

// TestMulT32MatchesMulT pins the float32 scatter to the float64 one within
// float32 rounding, under every dangling policy. The graph is sparse
// enough (~1.7 out-edges per node) that each policy's dangling branch runs.
func TestMulT32MatchesMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, policy := range []DanglingPolicy{DanglingSelfLoop, DanglingDrop, DanglingUniform} {
		g := randomGraph(rng, 120, 200)
		w := NewWalk(g, policy)
		if len(w.dangling) == 0 {
			t.Fatalf("policy %v: test graph has no dangling nodes", policy)
		}
		x := sparse.NewVector(120)
		for i := range x {
			x[i] = rng.Float64()
		}
		want := w.MulT(x, sparse.NewVector(120))
		got := w.MulT32(sparse.Round32(x, sparse.NewVector32(120)), sparse.NewVector32(120))
		for i := range want {
			if d := math.Abs(float64(got[i]) - want[i]); d > 1e-5*(1+math.Abs(want[i])) {
				t.Fatalf("policy %v: row %d: f32 %g vs f64 %g", policy, i, got[i], want[i])
			}
		}
	}
}
