package shard

import (
	"testing"

	"tpa/internal/gen"
	"tpa/internal/graph"
)

// checkPlan asserts the structural contract every Plan consumer relies on:
// bounds ascending from 0 to n with exactly shards ranges, and (when
// present) a true permutation of the id space.
func checkPlan(t *testing.T, p *Plan, n int) {
	t.Helper()
	if len(p.Bounds) != p.Shards+1 {
		t.Fatalf("%d bounds for %d shards", len(p.Bounds), p.Shards)
	}
	if p.Bounds[0] != 0 || p.Bounds[p.Shards] != n {
		t.Fatalf("bounds span [%d,%d], want [0,%d]", p.Bounds[0], p.Bounds[p.Shards], n)
	}
	for i := 1; i <= p.Shards; i++ {
		if p.Bounds[i] < p.Bounds[i-1] {
			t.Fatalf("bounds not ascending at %d: %v", i, p.Bounds)
		}
	}
	if p.Perm != nil {
		if len(p.Perm) != n {
			t.Fatalf("perm length %d, want %d", len(p.Perm), n)
		}
		seen := make([]bool, n)
		for _, u := range p.Perm {
			if u < 0 || int(u) >= n || seen[u] {
				t.Fatalf("perm is not a permutation (node %d)", u)
			}
			seen[u] = true
		}
	}
}

func TestPlanShardsProperties(t *testing.T) {
	graphs := []*graph.Graph{
		gen.SBM(gen.SBMConfig{Nodes: 240, Communities: 6, AvgOutDeg: 7, PIn: 0.9, Seed: 5}),
		gen.ErdosRenyi(97, 400, 3),
		gen.ErdosRenyi(5, 8, 1), // more shards than structure
	}
	for gi, g := range graphs {
		n := g.NumNodes()
		for _, shards := range []int{1, 2, 3, 7, n, n + 50} {
			p, err := PlanShards(g, shards, 10)
			if err != nil {
				t.Fatalf("graph %d shards=%d: %v", gi, shards, err)
			}
			want := shards
			if want > n {
				want = n
			}
			if p.Shards != want {
				t.Fatalf("graph %d: asked %d shards, planned %d (want clamp to %d)", gi, shards, p.Shards, want)
			}
			checkPlan(t, p, n)
			// Balance: label propagation caps parts at ceil(n/shards) and the
			// merge is first-fit-decreasing, so no shard can exceed twice the
			// ideal share.
			ideal := (n + p.Shards - 1) / p.Shards
			for i := 0; i < p.Shards; i++ {
				if sz := p.Bounds[i+1] - p.Bounds[i]; sz > 2*ideal {
					t.Errorf("graph %d shards=%d: shard %d holds %d nodes, ideal %d", gi, shards, i, sz, ideal)
				}
			}
			// Determinism: the plan is baked into snapshots, so a repeat run
			// must reproduce it exactly.
			q, err := PlanShards(g, shards, 10)
			if err != nil {
				t.Fatal(err)
			}
			for i := range p.Bounds {
				if p.Bounds[i] != q.Bounds[i] {
					t.Fatalf("graph %d shards=%d: nondeterministic bounds", gi, shards)
				}
			}
			for i := range p.Perm {
				if p.Perm[i] != q.Perm[i] {
					t.Fatalf("graph %d shards=%d: nondeterministic perm", gi, shards)
				}
			}
		}
	}
}

func TestPlanShardsContiguous(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 7)
	p, err := PlanShards(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, p, 100)
	if p.Perm != nil {
		t.Error("rounds=0 plan should not permute")
	}
	for i := 0; i < 4; i++ {
		if sz := p.Bounds[i+1] - p.Bounds[i]; sz != 25 {
			t.Errorf("contiguous shard %d holds %d nodes, want 25", i, sz)
		}
	}
}

func TestPlanShardsErrors(t *testing.T) {
	g := gen.ErdosRenyi(10, 20, 1)
	if _, err := PlanShards(g, 0, 5); err == nil {
		t.Error("shard count 0 accepted")
	}
	if _, err := PlanShards(graph.NewBuilderN(0).Build(), 2, 5); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestMergePartsBalance(t *testing.T) {
	for _, tc := range []struct {
		sizes  []int
		groups int
	}{
		{[]int{30, 30, 30, 30}, 2},
		{[]int{50, 1, 1, 1, 1, 1, 45}, 3},
		{[]int{7}, 3}, // fewer parts than groups: empty groups allowed
		{[]int{5, 5, 5, 5, 5, 5, 5, 5, 5}, 4},
	} {
		group := mergeParts(tc.sizes, tc.groups)
		if len(group) != len(tc.sizes) {
			t.Fatalf("%v: %d assignments", tc.sizes, len(group))
		}
		total := make([]int, tc.groups)
		var sum, largest int
		for id, gi := range group {
			if gi < 0 || gi >= tc.groups {
				t.Fatalf("%v: part %d in group %d", tc.sizes, id, gi)
			}
			total[gi] += tc.sizes[id]
			sum += tc.sizes[id]
			if tc.sizes[id] > largest {
				largest = tc.sizes[id]
			}
		}
		// Greedy number partitioning: max group ≤ ideal + largest item.
		bound := (sum+tc.groups-1)/tc.groups + largest
		for gi, tot := range total {
			if tot > bound {
				t.Errorf("%v into %d: group %d totals %d > bound %d", tc.sizes, tc.groups, gi, tot, bound)
			}
		}
		// Determinism.
		again := mergeParts(tc.sizes, tc.groups)
		for i := range group {
			if group[i] != again[i] {
				t.Fatalf("%v: nondeterministic merge", tc.sizes)
			}
		}
	}
}

// TestCheckBoundsRejectsBadBounds pins the partition contract the TPAM
// loader relies on for shard bounds read from a file.
func TestCheckBoundsRejectsBadBounds(t *testing.T) {
	const n = 20
	for _, bounds := range [][]int{
		nil,
		{0},
		{1, 20},         // does not start at 0
		{0, 10},         // does not end at n
		{0, 15, 10, 20}, // not ascending
		{0, -1, 20},     // negative
		{0, 21, 20},     // beyond n
	} {
		if err := CheckBounds(bounds, n); err == nil {
			t.Errorf("bounds %v accepted", bounds)
		}
	}
	for _, bounds := range [][]int{
		{0, n},
		{0, 0, 7, 7, n}, // empty shards are allowed
	} {
		if err := CheckBounds(bounds, n); err != nil {
			t.Errorf("bounds %v rejected: %v", bounds, err)
		}
	}
}
