package tpa

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"tpa/internal/mmapio"
)

// queriesAgree fails unless a and b answer every probe seed within tol,
// element-wise in external id space.
func queriesAgree(t *testing.T, tag string, a, b *Engine, seeds []int, tol float64) {
	t.Helper()
	for _, seed := range seeds {
		ra, err := a.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(ra) != len(rb) {
			t.Fatalf("%s: seed %d: lengths %d vs %d", tag, seed, len(ra), len(rb))
		}
		for i := range ra {
			if d := ra[i] - rb[i]; d > tol || d < -tol {
				t.Fatalf("%s: seed %d node %d: %g vs %g (Δ %g > %g)", tag, seed, i, ra[i], rb[i], d, tol)
			}
		}
	}
}

// TestMmapSnapshotRoundTrip saves engines of every flavor as TPAM and
// reloads them through both the explicit and the sniffing entry points: the
// mapped engine must answer bit-identically to the engine it was saved
// from.
func TestMmapSnapshotRoundTrip(t *testing.T) {
	g := RandomSBMGraph(500, 5, 6, 0.9, 11)
	seeds := []int{0, 42, 337, 499}
	for _, tc := range []struct {
		name  string
		build func() (*Engine, error)
	}{
		{"natural", func() (*Engine, error) { return New(g, Defaults()) }},
		{"reordered", func() (*Engine, error) {
			o := Defaults()
			o.Order = "degree"
			return New(g, o)
		}},
		{"float32", func() (*Engine, error) {
			o := Defaults()
			o.Precision = Float32
			return New(g, o)
		}},
		{"sharded", func() (*Engine, error) { return NewSharded(g, 4, Defaults()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "g.tpam")
			if err := eng.SaveSnapshotMmap(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadSnapshotMmap(path)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			if loaded.NumNodes() != g.NumNodes() || loaded.NumEdges() != g.NumEdges() {
				t.Fatalf("loaded %d nodes / %d edges, want %d / %d",
					loaded.NumNodes(), loaded.NumEdges(), g.NumNodes(), g.NumEdges())
			}
			if loaded.Precision() != eng.Precision() {
				t.Fatalf("precision %v, want %v", loaded.Precision(), eng.Precision())
			}
			if (eng.Permutation() == nil) != (loaded.Permutation() == nil) {
				t.Fatal("permutation presence changed across the round trip")
			}
			if loaded.NumShards() != eng.NumShards() {
				t.Fatalf("shards %d, want %d", loaded.NumShards(), eng.NumShards())
			}
			ln, le := loaded.ShardLayout()
			en, ee := eng.ShardLayout()
			if !reflect.DeepEqual(ln, en) || !reflect.DeepEqual(le, ee) {
				t.Fatalf("shard layout %v/%v, want %v/%v", ln, le, en, ee)
			}
			queriesAgree(t, tc.name, eng, loaded, seeds, 0)

			// The sniffing loader must take the mmap path for .tpam files.
			sniffed, err := LoadSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer sniffed.Close()
			if sniffed.snap == nil {
				t.Fatal("LoadSnapshotFile did not detect the TPAM container")
			}
			queriesAgree(t, tc.name+"-sniffed", eng, sniffed, seeds[:1], 0)
		})
	}
}

// TestMmapEngineRestrictions pins the mmap engine's contract: no dynamic
// updates, idempotent Close, typed failure after Close.
func TestMmapEngineRestrictions(t *testing.T) {
	g := RandomSBMGraph(200, 4, 5, 0.9, 7)
	eng, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.tpam")
	if err := eng.SaveSnapshotMmap(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshotMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := loaded.ApplyEdges([][2]int{{0, 1}}, nil); !errors.Is(err, ErrNotMutable) {
		t.Fatalf("ApplyEdges on mmap engine: %v, want ErrNotMutable", err)
	}
	if mapped, heap := loaded.StorageBytes(); mapped == 0 && heap == 0 {
		t.Fatal("StorageBytes reported nothing for a loaded snapshot")
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestShardedEngineEquivalence is the sharded-correctness crux: for shard
// counts 1, 2 and 7 the sharded-layout engine must agree with the plain
// engine element-wise to 1e-12 in external id space — the shard plan
// relabels nodes, so any leak of internal ids would misroute whole scores.
func TestShardedEngineEquivalence(t *testing.T) {
	g := RandomSBMGraph(600, 6, 6, 0.9, 13)
	base, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int{0, 1, 99, 300, 599}
	for _, shards := range []int{1, 2, 7} {
		eng, err := NewSharded(g, shards, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		if want := shards; eng.NumShards() != want {
			t.Fatalf("%d-way build reports %d shards", shards, eng.NumShards())
		}
		if shards > 1 {
			nodes, edges := eng.ShardLayout()
			tn, te := 0, int64(0)
			for i := range nodes {
				tn += nodes[i]
				te += edges[i]
			}
			if tn != g.NumNodes() || te != g.NumEdges() {
				t.Fatalf("shard layout covers %d nodes / %d edges, want %d / %d",
					tn, te, g.NumNodes(), g.NumEdges())
			}
			if _, _, err := eng.ApplyEdges([][2]int{{0, 1}}, nil); !errors.Is(err, ErrNotMutable) {
				t.Fatalf("ApplyEdges on sharded engine: %v, want ErrNotMutable", err)
			}
		}
		queriesAgree(t, "shards", base, eng, seeds, 1e-12)

		top, err := eng.TopK(seeds[2], 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(top) != 10 {
			t.Fatalf("TopK returned %d entries", len(top))
		}
		batch, err := eng.QueryBatch(seeds, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			single, err := eng.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			for j := range single {
				if batch[i][j] != single[j] {
					t.Fatalf("batch result differs from single query at seed %d node %d", seed, j)
				}
			}
		}
	}
}

// TestMmapRejectsBadShardBounds pins the loader's check on the shards
// section: a file whose checksums are all valid but whose shard bounds
// descend must fail typed with ErrBadSnapshot, not load into an engine
// whose ShardLayout would index out of range.
func TestMmapRejectsBadShardBounds(t *testing.T) {
	g := RandomSBMGraph(200, 4, 5, 0.9, 17)
	eng, err := NewSharded(g, 3, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.tpam")
	if err := eng.SaveSnapshotMmap(good); err != nil {
		t.Fatal(err)
	}
	s, err := mmapio.Open(good)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Copy every section of the valid file, then replace the shard bounds.
	w := mmapio.NewWriter()
	meta, err := s.Bytes(mmapSecMeta)
	if err != nil {
		t.Fatal(err)
	}
	w.Bytes(mmapSecMeta, meta)
	for _, id := range []uint32{mmapSecOutPtr, mmapSecInPtr} {
		v, err := s.I64s(id)
		if err != nil {
			t.Fatal(err)
		}
		w.I64s(id, v)
	}
	for _, id := range []uint32{mmapSecOutIdx, mmapSecInIdx, mmapSecDangling, mmapSecPerm} {
		v, err := s.I32s(id)
		if err != nil {
			t.Fatal(err)
		}
		w.I32s(id, v)
	}
	for _, id := range []uint32{mmapSecInvDeg, mmapSecStranger} {
		v, err := s.F64s(id)
		if err != nil {
			t.Fatal(err)
		}
		w.F64s(id, v)
	}
	inv32, err := s.F32s(mmapSecInvDeg32)
	if err != nil {
		t.Fatal(err)
	}
	w.F32s(mmapSecInvDeg32, inv32)
	n := int64(g.NumNodes())
	w.I64s(mmapSecShards, []int64{0, 2 * n / 3, n / 3, n})
	bad := filepath.Join(dir, "bad.tpam")
	if err := w.WriteFile(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotMmap(bad); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("descending shard bounds: %v, want ErrBadSnapshot", err)
	}
}

// TestMmapZeroCopyLoad proves the zero-copy claim the format exists for:
// loading a TPAM snapshot must allocate O(1) heap in graph size. The graph
// below carries ~1.2 MB of arrays; the load must stay under 256 KiB of
// allocations (views, headers and engine structs — nothing proportional).
func TestMmapZeroCopyLoad(t *testing.T) {
	g := RandomSBMGraph(20_000, 10, 8, 0.9, 3)
	eng, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.tpam")
	if err := eng.SaveSnapshotMmap(path); err != nil {
		t.Fatal(err)
	}
	probe, err := LoadSnapshotMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	if !probe.Mapped() {
		probe.Close()
		t.Skip("mmap unavailable on this platform; heap fallback in use")
	}
	probe.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	loaded, err := LoadSnapshotMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	defer loaded.Close()
	alloc := after.TotalAlloc - before.TotalAlloc
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if alloc > 256<<10 {
		t.Fatalf("zero-copy load allocated %d bytes for a %d-byte snapshot", alloc, st.Size())
	}
	if _, err := loaded.Query(0); err != nil {
		t.Fatal(err)
	}
}
