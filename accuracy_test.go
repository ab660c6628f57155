package tpa_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tpa"
)

// Property-based accuracy regression suite: on random SBM graphs of varying
// shape, the engine's answers must honor the paper's guarantees —
// ‖r_exact − r_TPA‖₁ ≤ 2(1-c)^S (Theorem 2), unit total mass, and a top-k
// head consistent with exact RWR wherever the error budget allows ranks to
// be distinguished at all. The same properties are asserted again after
// dynamic edge mutations, both on the uncompacted overlay and after
// compaction, so the incremental reindex path is held to the same bound as
// fresh preprocessing.

func l1dist(a, b []float64) float64 {
	var d float64
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// checkAccuracy asserts the Theorem-2 bound, mass conservation, TopK
// consistency with Query, and margin-aware head agreement with exact RWR
// for one engine/graph/seed triple. g must be the graph the engine serves,
// in EXTERNAL id order (for reordered engines that is the original input
// graph, not engine.Graph()).
func checkAccuracy(t *testing.T, tag string, eng *tpa.Engine, g *tpa.Graph, seed int, o tpa.Options) {
	t.Helper()
	checkAccuracyTol(t, tag, eng, g, seed, o, 0, 1e-6)
}

// checkAccuracyTol is checkAccuracy with explicit tolerances for float32
// engines: slack widens the Theorem-2 bound by the index-rounding error and
// massTol the unit-mass check (float32 keeps ~7 significant digits per
// element, so both degrade together).
func checkAccuracyTol(t *testing.T, tag string, eng *tpa.Engine, g *tpa.Graph, seed int, o tpa.Options, slack, massTol float64) {
	t.Helper()
	approx, err := eng.Query(seed)
	if err != nil {
		t.Fatalf("%s: query: %v", tag, err)
	}
	exact, err := tpa.Exact(g, seed, o)
	if err != nil {
		t.Fatalf("%s: exact: %v", tag, err)
	}

	// Theorem 2: the L1 error never exceeds the a-priori bound (plus the
	// declared float32 rounding slack, zero for float64 engines).
	dist := l1dist(approx, exact)
	if bound := eng.ErrorBound() + slack; dist > bound {
		t.Errorf("%s seed %d: L1 error %g exceeds ErrorBound %g", tag, seed, dist, bound)
	}

	// The walk is column-stochastic under the self-loop policy, so both
	// vectors carry (ε-truncated) unit mass.
	var mass float64
	for _, v := range approx {
		mass += v
	}
	if math.Abs(mass-1) > massTol {
		t.Errorf("%s seed %d: query mass %g, want ≈1", tag, seed, mass)
	}

	// TopK must be exactly the head of the score vector it serves.
	const k = 10
	top, err := eng.TopK(seed, k)
	if err != nil {
		t.Fatalf("%s: topk: %v", tag, err)
	}
	want := tpa.TopKOf(approx, k)
	if len(top) != len(want) {
		t.Fatalf("%s seed %d: TopK returned %d entries, want %d", tag, seed, len(top), len(want))
	}
	for i := range want {
		if top[i] != want[i] {
			t.Errorf("%s seed %d: TopK[%d] = %+v, want %+v", tag, seed, i, top[i], want[i])
		}
	}

	// Head agreement: per-entry errors are bounded by the measured L1
	// distance, so whenever exact scores of two nodes differ by more than
	// that, TPA must rank them the same way. This checks TopK ordering
	// against exact RWR precisely on the pairs the error budget can
	// distinguish — near-ties are legitimately unordered.
	idx := make([]int, len(exact))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return exact[idx[i]] > exact[idx[j]] })
	head := idx
	if len(head) > 2*k {
		head = head[:2*k]
	}
	for i := 0; i < len(head); i++ {
		for j := i + 1; j < len(head); j++ {
			a, b := head[i], head[j]
			if exact[a]-exact[b] > dist && approx[a] <= approx[b] {
				t.Errorf("%s seed %d: exact ranks %d (%.3g) above %d (%.3g) by more than the error %.3g, but TPA orders them %g ≤ %g",
					tag, seed, a, exact[a], b, exact[b], dist, approx[a], approx[b])
			}
		}
	}
}

func TestAccuracyPropertySBM(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		nodes := 150 + rng.Intn(450)
		comms := 2 + rng.Intn(4)
		deg := 3 + rng.Float64()*5
		pin := 0.7 + rng.Float64()*0.25
		g := tpa.RandomSBMGraph(nodes, comms, deg, pin, rng.Int63())
		o := tpa.Defaults()
		o.CompactAfter = 0.5 // keep small batches on the overlay below
		eng, err := tpa.New(g, o)
		if err != nil {
			t.Fatal(err)
		}
		seeds := []int{rng.Intn(nodes), rng.Intn(nodes), rng.Intn(nodes)}
		for _, seed := range seeds {
			checkAccuracy(t, "static", eng, g, seed, o)
		}

		// Random mutation batch: fresh edges in, existing edges out.
		var adds, removes [][2]int
		for i := 0; i < 5+rng.Intn(10); i++ {
			adds = append(adds, [2]int{rng.Intn(nodes), rng.Intn(nodes)})
			u := rng.Intn(nodes)
			if ns := g.OutNeighbors(u); len(ns) > 0 {
				removes = append(removes, [2]int{u, int(ns[rng.Intn(len(ns))])})
			}
		}
		mutated, stats, err := eng.ApplyEdges(adds, removes)
		if err != nil {
			t.Fatal(err)
		}
		compacted, err := mutated.Compact()
		if err != nil {
			t.Fatal(err)
		}
		mg := compacted.Graph()
		if mg == nil {
			t.Fatal("compacted engine lost its graph")
		}
		for _, seed := range seeds {
			// The overlay engine and the compacted engine serve the same
			// mutated graph; both must stay within the bound of exact RWR
			// on that graph.
			if !stats.Compacted {
				checkAccuracy(t, "overlay", mutated, mg, seed, o)
			}
			checkAccuracy(t, "compacted", compacted, mg, seed, o)
		}
	}
}

// TestAccuracyVariants holds the layout- and precision-aware engines to the
// same guarantees as the baseline: every combination of build-time ordering
// (degree, BFS, hub/spoke) and index precision (float64, float32) must
// meet the Theorem-2 bound against exact RWR on the ORIGINAL
// (external-id) graph — within explicit float32 tolerances where the index
// is rounded — both statically and after a mutation batch. The exact
// reference never sees the permutation, so any id leak in the remapping
// boundary shows up as a gross L1 error, not a tolerance miss.
func TestAccuracyVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const nodes = 400
	g := tpa.RandomSBMGraph(nodes, 4, 5, 0.85, 31)

	// One mutation batch shared by all variants, so every engine is held to
	// the same mutated reference graph.
	var adds, removes [][2]int
	for i := 0; i < 12; i++ {
		adds = append(adds, [2]int{rng.Intn(nodes), rng.Intn(nodes)})
		u := rng.Intn(nodes)
		if ns := g.OutNeighbors(u); len(ns) > 0 {
			removes = append(removes, [2]int{u, int(ns[rng.Intn(len(ns))])})
		}
	}
	// The external-id mutated reference graph comes from a natural-order
	// engine: for reordered engines, engine.Graph() is in internal order and
	// must NOT be used as the exact reference.
	o := tpa.Defaults()
	nat, err := tpa.New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	natMut, _, err := nat.ApplyEdges(adds, removes)
	if err != nil {
		t.Fatal(err)
	}
	natComp, err := natMut.Compact()
	if err != nil {
		t.Fatal(err)
	}
	refG := natComp.Graph()

	// float32 keeps ~7 significant digits; with unit total mass spread over
	// 400 nodes the rounding contributes ≪ 1e-4 in L1 — orders of magnitude
	// under the Theorem-2 bound, but asserted explicitly so a precision
	// regression (e.g. accumulating in float32) fails loudly.
	const f32Slack, f32MassTol = 1e-4, 1e-4
	variants := []struct {
		name           string
		order          string
		prec           tpa.Precision
		slack, massTol float64
	}{
		{"degree-f64", "degree", tpa.Float64, 0, 1e-6},
		{"bfs-f64", "bfs", tpa.Float64, 0, 1e-6},
		{"natural-f32", "", tpa.Float32, f32Slack, f32MassTol},
		{"degree-f32", "degree", tpa.Float32, f32Slack, f32MassTol},
		{"hubspoke-f32", "hubspoke", tpa.Float32, f32Slack, f32MassTol},
	}
	seeds := []int{3, 141, 255, 399}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			vo := tpa.Defaults()
			vo.Order, vo.Precision = v.order, v.prec
			eng, err := tpa.New(g, vo)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range seeds {
				checkAccuracyTol(t, "static/"+v.name, eng, g, seed, vo, v.slack, v.massTol)
			}
			mutated, _, err := eng.ApplyEdges(adds, removes)
			if err != nil {
				t.Fatal(err)
			}
			compacted, err := mutated.Compact()
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range seeds {
				checkAccuracyTol(t, "mutated/"+v.name, mutated, refG, seed, vo, v.slack, v.massTol)
				checkAccuracyTol(t, "compacted/"+v.name, compacted, refG, seed, vo, v.slack, v.massTol)
			}
		})
	}
}

// TestAccuracyAfterMutationStorm chains many mutation batches (crossing
// compaction and possibly full-rebuild thresholds) and asserts the final
// engine still meets the Theorem-2 bound against exact RWR on the final
// graph — the regression test for error drift in stacked incremental
// reindexes.
func TestAccuracyAfterMutationStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const nodes = 250
	g := tpa.RandomSBMGraph(nodes, 3, 5, 0.85, 41)
	o := tpa.Defaults()
	o.CompactAfter = 0.03
	eng, err := tpa.New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	cur := eng
	for step := 0; step < 10; step++ {
		var adds, removes [][2]int
		for i := 0; i < 8; i++ {
			adds = append(adds, [2]int{rng.Intn(nodes), rng.Intn(nodes)})
		}
		cur, _, err = cur.ApplyEdges(adds, removes)
		if err != nil {
			t.Fatal(err)
		}
	}
	final, err := cur.Compact()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int{0, 17, 123, 249} {
		checkAccuracy(t, "storm", final, final.Graph(), seed, o)
	}
}

// TestAccuracySharded holds sharded-layout engines to the same Theorem-2
// guarantees as the baseline, both freshly built and after a TPAM snapshot
// round trip: the exact reference always runs on the original external-id
// graph, so any id leak across the shard permutation or the zero-copy
// loader shows up as a gross L1 error.
func TestAccuracySharded(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	const nodes = 350
	g := tpa.RandomSBMGraph(nodes, 4, 5, 0.85, 23)
	o := tpa.Defaults()
	seeds := []int{0, rng.Intn(nodes), rng.Intn(nodes), nodes - 1}
	for _, shards := range []int{2, 7} {
		eng, err := tpa.NewSharded(g, shards, o)
		if err != nil {
			t.Fatal(err)
		}
		tag := "sharded"
		for _, seed := range seeds {
			checkAccuracy(t, tag, eng, g, seed, o)
		}
		path := t.TempDir() + "/s.tpam"
		if err := eng.SaveSnapshotMmap(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := tpa.LoadSnapshotMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range seeds {
			checkAccuracy(t, tag+"/mmap", loaded, g, seed, o)
		}
		loaded.Close()
	}
}
