package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// This file implements the concurrent query subsystem: a worker-pooled batch
// executor over the online phase, with sync.Pool-backed scratch vectors so
// the per-query allocation count in steady state is zero (QueryInto,
// TopKBatch) or exactly the returned result (Query, QueryBatch). The TPA
// state is read-only during queries, so any number of workers can share it.

// queryScratch holds the working vectors of one in-flight query: the seed /
// iterate vector q, the propagation buffer, and an output vector for top-k
// paths that never hand a full score vector back to the caller. Scratches
// are pooled on the TPA (see TPA.scratch).
type queryScratch struct {
	q, buf, out sparse.Vector
	// q32/buf32/fam32 are the float32 counterparts, allocated only for
	// Float32 engines (see precision.go): seed/iterate, propagation buffer
	// and family accumulator of the reduced-precision online phase.
	q32, buf32, fam32 sparse.Vector32
}

// getScratch returns a scratch sized for the current graph (and its serving
// precision), reusing a pooled one when available.
func (t *TPA) getScratch() *queryScratch {
	f32 := t.useF32()
	if sc, ok := t.scratch.Get().(*queryScratch); ok && len(sc.q) == t.walk.N() && (sc.q32 != nil) == f32 {
		return sc
	}
	n := t.walk.N()
	sc := &queryScratch{q: sparse.NewVector(n), buf: sparse.NewVector(n), out: sparse.NewVector(n)}
	if f32 {
		sc.q32 = sparse.NewVector32(n)
		sc.buf32 = sparse.NewVector32(n)
		sc.fam32 = sparse.NewVector32(n)
	}
	return sc
}

func (t *TPA) putScratch(sc *queryScratch) { t.scratch.Put(sc) }

// checkSeeds validates every seed against the graph's node range.
func (t *TPA) checkSeeds(seeds []int) error {
	n := t.walk.N()
	for _, s := range seeds {
		if err := rwr.CheckSeed("core", s, n); err != nil {
			return err
		}
	}
	return nil
}

// queryInto runs the online phase for the (already validated, non-empty)
// seed set, writing the combined r_TPA into dst using sc for all
// intermediate state. It is the allocation-free core of Query, QueryBatch
// and TopKBatch.
func (t *TPA) queryInto(seeds []int, dst sparse.Vector, sc *queryScratch) {
	if t.useF32() {
		t.queryInto32(seeds, dst, sc)
		return
	}
	sc.q.Zero()
	share := 1 / float64(len(seeds))
	for _, s := range seeds {
		sc.q[s] += share
	}
	cpiInto(t.walk, t.cfg, 0, t.params.S-1, sc.q, sc.buf, dst)
	// dst now holds r_family; fold in the scaled neighbor estimate and the
	// shared stranger vector in one pass (Lemma 2 scaling, Algorithm 3).
	famMass, neighMass, _ := PartMasses(t.cfg.C, t.params.S, t.params.T)
	scale := 1.0
	if famMass > 0 {
		scale = 1 + neighMass/famMass
	}
	for i, f := range dst {
		dst[i] = f*scale + t.stranger[i]
	}
}

// QueryInto is Query writing its answer into the caller-provided dst (length
// N), avoiding the result allocation too. It returns dst. It is safe for
// concurrent use with distinct dst vectors.
func (t *TPA) QueryInto(seed int, dst sparse.Vector) (sparse.Vector, error) {
	if err := rwr.CheckSeed("core", seed, t.walk.N()); err != nil {
		return nil, err
	}
	if len(dst) != t.walk.N() {
		return nil, fmt.Errorf("core: dst length %d, want %d", len(dst), t.walk.N())
	}
	sc := t.getScratch()
	t.queryInto([]int{seed}, dst, sc)
	t.putScratch(sc)
	return dst, nil
}

// batchWorkers resolves a parallelism request against the job count.
func batchWorkers(parallelism, jobs int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > jobs {
		parallelism = jobs
	}
	return parallelism
}

// QueryBatch answers one single-seed query per entry of seeds, fanning the
// work out over a pool of parallelism worker goroutines (0 means
// GOMAXPROCS). Results[i] is the score vector for seeds[i]. Every seed is
// validated up front, so a bad seed fails the whole batch before any work
// runs. Workers draw scratch vectors from the shared pool; the only
// allocations are the returned vectors.
func (t *TPA) QueryBatch(seeds []int, parallelism int) ([]sparse.Vector, error) {
	if err := t.checkSeeds(seeds); err != nil {
		return nil, err
	}
	n := t.walk.N()
	out := make([]sparse.Vector, len(seeds))
	t.runBatch(seeds, parallelism, func(i int, sc *queryScratch) {
		dst := sparse.NewVector(n)
		t.queryInto(seeds[i:i+1], dst, sc)
		out[i] = dst
	})
	return out, nil
}

// QueryBatchEach is the zero-copy form of QueryBatch: one single-seed query
// per entry of seeds on the same worker pool, but each answer is handed to
// emit as a pooled scratch vector instead of a fresh allocation. The vector
// is only valid for the duration of the emit call; emit runs once per index,
// possibly concurrently from different workers. Callers that post-process
// answers into their own storage (e.g. the external-id scatter of reordered
// engines) save one full-length vector allocation per query.
func (t *TPA) QueryBatchEach(seeds []int, parallelism int, emit func(i int, r sparse.Vector)) error {
	if err := t.checkSeeds(seeds); err != nil {
		return err
	}
	t.runBatch(seeds, parallelism, func(i int, sc *queryScratch) {
		t.queryInto(seeds[i:i+1], sc.out, sc)
		emit(i, sc.out)
	})
	return nil
}

// TopKBatch answers a top-k query per seed with a worker pool, like
// QueryBatch, but keeps the full score vectors in pooled scratch and returns
// only the k best entries per seed — the shape a batch serving endpoint
// wants.
func (t *TPA) TopKBatch(seeds []int, k, parallelism int) ([][]sparse.Entry, error) {
	if err := t.checkSeeds(seeds); err != nil {
		return nil, err
	}
	out := make([][]sparse.Entry, len(seeds))
	t.runBatch(seeds, parallelism, func(i int, sc *queryScratch) {
		t.queryInto(seeds[i:i+1], sc.out, sc)
		out[i] = sc.out.TopK(k)
	})
	return out, nil
}

// runBatch runs job(i, scratch) for every index of seeds on a pool of
// workers, each worker holding one scratch for its whole run. A panic in a
// job stops only that worker: the others drain the remaining indices, and
// the first panic value is re-raised on the calling goroutine once all
// workers have exited, so a server's per-request recovery sees it exactly
// as if the batch had run inline.
func (t *TPA) runBatch(seeds []int, parallelism int, job func(i int, sc *queryScratch)) {
	workers := batchWorkers(parallelism, len(seeds))
	if workers <= 1 {
		sc := t.getScratch()
		for i := range seeds {
			job(i, sc)
		}
		t.putScratch(sc)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicked = p })
				}
			}()
			sc := t.getScratch()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seeds) {
					break
				}
				job(i, sc)
			}
			t.putScratch(sc)
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
