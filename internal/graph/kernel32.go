package graph

import "tpa/internal/sparse"

// Reduced-precision kernel: the same Ãᵀ scatter as Walk.MulT, over float32
// storage. Halving the element size halves the random-access working set
// of the scatter (y[v] per out-edge), which is where the hot path spends
// its time once the vectors outgrow L2 — the "better cache residency" half
// of the float32 index story. Sums accumulate in float32; the precision
// loss is covered by the explicit float32 tolerance the accuracy suite
// asserts on top of the Theorem-2 bound.

// MulT32 computes y = Ãᵀ·x over float32 storage into the provided buffer y
// (zeroed first) and returns y. It mirrors MulT exactly, including the
// dangling-node policy. len(y) must equal len(x) == N.
func (w *Walk) MulT32(x, y sparse.Vector32) sparse.Vector32 {
	y.Zero()
	n := w.g.NumNodes()
	var danglingMass float32
	for u := 0; u < n; u++ {
		xu := x[u]
		if xu == 0 {
			continue
		}
		ns := w.g.OutNeighbors(u)
		if len(ns) == 0 {
			switch w.policy {
			case DanglingSelfLoop:
				y[u] += xu
			case DanglingUniform:
				danglingMass += xu
			case DanglingDrop:
				// mass vanishes
			}
			continue
		}
		share := xu * w.invdeg32[u]
		for _, v := range ns {
			y[v] += share
		}
	}
	if danglingMass != 0 {
		u := danglingMass / float32(n)
		for i := range y {
			y[i] += u
		}
	}
	return y
}
