package core

import (
	"testing"

	"tpa/internal/sparse"
)

func TestQueryBatchMatchesSerial(t *testing.T) {
	tp, _ := preprocessed(t, 50, DefaultParams())
	seeds := []int{0, 7, 42, 7, 199, 250}
	for _, parallelism := range []int{1, 3, 8} {
		batch, err := tp.QueryBatch(seeds, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(seeds) {
			t.Fatalf("parallelism %d: %d results for %d seeds", parallelism, len(batch), len(seeds))
		}
		for i, seed := range seeds {
			want, err := tp.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			if d := want.L1Dist(batch[i]); d != 0 {
				t.Errorf("parallelism %d seed %d: batch deviates from serial by %g", parallelism, seed, d)
			}
		}
	}
}

func TestQueryBatchErrors(t *testing.T) {
	tp, _ := preprocessed(t, 51, DefaultParams())
	if _, err := tp.QueryBatch([]int{1, 2, 9999}, 2); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, err := tp.QueryBatch([]int{-1}, 2); err == nil {
		t.Error("negative seed accepted")
	}
	out, err := tp.QueryBatch(nil, 4)
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch: %v, %d results", err, len(out))
	}
}

func TestQueryBatchEachMatchesQueryBatch(t *testing.T) {
	tp, _ := preprocessed(t, 56, DefaultParams())
	seeds := []int{0, 9, 120, 9, 254}
	want, err := tp.QueryBatch(seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{1, 4} {
		got := make([]sparse.Vector, len(seeds))
		err := tp.QueryBatchEach(seeds, parallelism, func(i int, r sparse.Vector) {
			// The scratch is only valid inside the callback — copy out.
			got[i] = append(sparse.Vector(nil), r...)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range seeds {
			if got[i] == nil {
				t.Fatalf("parallelism %d: emit skipped index %d", parallelism, i)
			}
			if d := want[i].L1Dist(got[i]); d != 0 {
				t.Errorf("parallelism %d seed %d: QueryBatchEach deviates by %g", parallelism, seeds[i], d)
			}
		}
	}
	if err := tp.QueryBatchEach([]int{-1}, 2, func(int, sparse.Vector) {
		t.Error("emit called for an invalid batch")
	}); err == nil {
		t.Error("bad seed accepted")
	}
}

func TestTopKBatchMatchesTopK(t *testing.T) {
	tp, _ := preprocessed(t, 52, DefaultParams())
	seeds := []int{3, 77, 3, 210}
	const k = 15
	batch, err := tp.TopKBatch(seeds, k, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		want, err := tp.TopK(seed, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i]) != len(want) {
			t.Fatalf("seed %d: %d entries, want %d", seed, len(batch[i]), len(want))
		}
		for j := range want {
			if batch[i][j] != want[j] {
				t.Errorf("seed %d entry %d: %+v != %+v", seed, j, batch[i][j], want[j])
			}
		}
	}
}

func TestQueryIntoMatchesQuery(t *testing.T) {
	tp, _ := preprocessed(t, 53, DefaultParams())
	want, err := tp.Query(17)
	if err != nil {
		t.Fatal(err)
	}
	dst := sparse.NewVector(tp.Walk().N())
	got, err := tp.QueryInto(17, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[0] {
		t.Error("QueryInto did not return dst")
	}
	if d := want.L1Dist(got); d != 0 {
		t.Errorf("QueryInto deviates by %g", d)
	}
	if _, err := tp.QueryInto(17, sparse.NewVector(3)); err == nil {
		t.Error("short dst accepted")
	}
	if _, err := tp.QueryInto(-1, dst); err == nil {
		t.Error("bad seed accepted")
	}
}

// The query hot path must not allocate at all beyond the scratch it is
// handed. Measuring queryInto with a caller-held scratch takes the
// sync.Pool out of the picture entirely, so the count is exactly zero on
// every run — the pool is what made the old QueryInto-based check flaky:
// GC can empty it mid-run, and under the race detector Put/Get drop
// entries pseudo-randomly, both forcing occasional scratch re-allocations.
// This assertion is deterministic under both runtimes.
func TestQueryIntoAllocationFree(t *testing.T) {
	tp, _ := preprocessed(t, 54, DefaultParams())
	dst := sparse.NewVector(tp.Walk().N())
	sc := tp.getScratch()
	defer tp.putScratch(sc)
	seeds := []int{5}
	allocs := testing.AllocsPerRun(200, func() {
		tp.queryInto(seeds, dst, sc)
	})
	if allocs != 0 {
		t.Errorf("queryInto allocates %.2f objects/op, want exactly 0", allocs)
	}
	// The pooled public wrapper must produce the same answer (its own
	// allocation behavior is the pool's business, not asserted here).
	want, err := tp.QueryInto(5, sparse.NewVector(tp.Walk().N()))
	if err != nil {
		t.Fatal(err)
	}
	if d := want.L1Dist(dst); d != 0 {
		t.Errorf("scratch-held queryInto deviates from QueryInto by %g", d)
	}
}

func TestPreprocessParallelMatchesSerial(t *testing.T) {
	w := testWalk(t, 55)
	serial, err := Preprocess(w, cfg(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := PreprocessParallel(w, cfg(), DefaultParams(), workers)
		if err != nil {
			t.Fatal(err)
		}
		// Sharded gather order differs from the serial scatter order only in
		// floating-point rounding.
		if d := serial.StrangerVector().L1Dist(par.StrangerVector()); d > 1e-10 {
			t.Errorf("workers %d: stranger vector deviates by %g", workers, d)
		}
		a, err := serial.Query(12)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Query(12)
		if err != nil {
			t.Fatal(err)
		}
		if d := a.L1Dist(b); d > 1e-10 {
			t.Errorf("workers %d: query deviates by %g", workers, d)
		}
	}
}

// panicOp is an operator whose matvec panics, standing in for a kernel
// that indexes out of range on a corrupt snapshot.
type panicOp struct{ n int }

func (p panicOp) N() int { return p.n }
func (p panicOp) MulT(x, y sparse.Vector) sparse.Vector {
	panic("panicOp: MulT")
}

// TestRunBatchReraisesWorkerPanic pins that a panic inside a batch worker
// goroutine surfaces on the caller's goroutine, where net/http's
// per-request recovery can catch it, instead of killing the process.
func TestRunBatchReraisesWorkerPanic(t *testing.T) {
	const n = 8
	tp, err := NewFromParts(panicOp{n}, cfg(), DefaultParams(), sparse.NewVector(n), nil, Float64, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if p := recover(); p != "panicOp: MulT" {
			t.Fatalf("recovered %v, want the worker's panic value", p)
		}
	}()
	tp.TopKBatch([]int{0, 1, 2, 3, 4, 5}, 3, 2)
	t.Fatal("TopKBatch returned instead of panicking")
}
