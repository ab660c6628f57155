package tpa

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

// TestEngineSnapshotRoundTrip saves a preprocessed engine and reloads it
// through the public API: the loaded engine must answer every query
// identically without touching the edge list or re-running preprocessing.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	g := RandomSBMGraph(500, 5, 6, 0.9, 11)
	eng, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.tpas")
	if err := eng.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Graph().NumNodes() != g.NumNodes() || loaded.Graph().NumEdges() != g.NumEdges() {
		t.Fatalf("loaded graph %d/%d, want %d/%d", loaded.Graph().NumNodes(),
			loaded.Graph().NumEdges(), g.NumNodes(), g.NumEdges())
	}
	if ls, lt := loaded.Params(); ls != 5 || lt != 10 {
		t.Fatalf("params changed: S=%d T=%d", ls, lt)
	}
	for _, seed := range []int{0, 42, 499} {
		a, err := eng.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: score %d differs after snapshot round trip", seed, i)
			}
		}
	}
}

// TestSnapshotPermutationRoundTrip is the correctness crux of build-time
// reordering: external node ids must never leak the permutation. A
// reordered engine must answer (element-for-element, in external id space)
// like the natural-order engine built from the same graph, and a snapshot
// save/load must reproduce the reordered engine bit-exactly — the TPAS v2
// container carries the permutation, so a loader that dropped or misapplied
// it would scatter every score to the wrong node.
func TestSnapshotPermutationRoundTrip(t *testing.T) {
	g := RandomSBMGraph(400, 4, 6, 0.9, 21)
	nat, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		order string
		prec  Precision
		tol   float64 // vs the natural engine, per element
	}{
		// Reordering only changes float summation order in f64.
		{"degree-f64", "degree", Float64, 1e-12},
		{"bfs-f64", "bfs", Float64, 1e-12},
		// float32 adds rounding of the stored index and the propagation.
		{"hubspoke-f32", "hubspoke", Float32, 2e-4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := Defaults()
			o.Order, o.Precision = tc.order, tc.prec
			eng, err := New(g, o)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Permutation() == nil || eng.Order() != tc.order {
				t.Fatalf("engine lost its ordering: perm=%v order=%q", eng.Permutation() != nil, eng.Order())
			}
			path := filepath.Join(t.TempDir(), "g.tpas")
			if err := eng.SaveSnapshotFile(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Permutation() == nil {
				t.Fatal("snapshot dropped the permutation")
			}
			if loaded.Precision() != tc.prec {
				t.Fatalf("snapshot precision %v, want %v", loaded.Precision(), tc.prec)
			}
			for _, seed := range []int{0, 57, 201, 399} {
				want, err := nat.Query(seed)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Query(seed)
				if err != nil {
					t.Fatal(err)
				}
				reloaded, err := loaded.Query(seed)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					// A permutation leak misroutes whole scores (O(1e-2)
					// errors); summation reorder and f32 rounding stay
					// below tol. Element-wise comparison pins the ids.
					if d := got[i] - want[i]; d > tc.tol || d < -tc.tol {
						t.Fatalf("seed %d node %d: reordered %g vs natural %g (Δ %g > %g)",
							seed, i, got[i], want[i], d, tc.tol)
					}
					if reloaded[i] != got[i] {
						t.Fatalf("seed %d node %d: score changed across snapshot round trip", seed, i)
					}
				}
			}
		})
	}
}

func TestLoadSnapshotRejectsCorruption(t *testing.T) {
	g := RandomSBMGraph(100, 2, 4, 0.9, 12)
	eng, err := New(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	blob[len(blob)/2] ^= 0x01
	if _, err := LoadSnapshot(bytes.NewReader(blob)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("corrupted snapshot: got %v, want ErrBadSnapshot", err)
	}
}

func TestStreamingEngineCannotSnapshot(t *testing.T) {
	g := RandomSBMGraph(50, 2, 4, 0.9, 13)
	path := filepath.Join(t.TempDir(), "edges.bin")
	if err := CreateEdgeFile(path, g); err != nil {
		t.Fatal(err)
	}
	eng, err := NewFromEdgeFile(path, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveSnapshot(&bytes.Buffer{}); err == nil {
		t.Error("streaming engine snapshot accepted")
	}
}
