// Microbenchmarks for the layout- and precision-aware kernels: one Ãᵀ·x
// application (the unit of all CPI work) across kernel variants × node
// orderings, plus end-to-end QueryBatch on reordered/float32 engines. Run
// with:
//
//	go test -bench 'MulT|QueryBatchOrdered' -benchtime 200ms
//
// The orderings matter to the gather kernel because they cluster in-links:
// after a degree or BFS permutation the hot source nodes share cache lines.
// The float32 kernel halves the bytes per scattered element. CI records these in
// BENCH_ci.json and diffs against BENCH_baseline.json, so a kernel
// regression fails the bench job rather than landing silently.
package tpa

import (
	"sync"
	"testing"

	"tpa/internal/graph"
	"tpa/internal/reorder"
	"tpa/internal/sparse"
)

// The kernel workload is the acceptance graph: a 100k-node SBM with
// community structure and skewed degrees, whose 12n-byte working set is far
// beyond L2 — the regime where layout and precision pay.
const (
	kernelBenchNodes = 100_000
	kernelBenchComms = 50
)

var kernelBench struct {
	once  sync.Once
	g     *Graph
	walks map[string]*graph.Walk
}

func kernelWalks(b *testing.B) map[string]*graph.Walk {
	b.Helper()
	kernelBench.once.Do(func() {
		kernelBench.g = RandomSBMGraph(kernelBenchNodes, kernelBenchComms, 12, 0.9, 7)
		kernelBench.walks = map[string]*graph.Walk{
			"natural": graph.NewWalk(kernelBench.g, graph.DanglingSelfLoop),
		}
		for _, ord := range []reorder.Order{reorder.OrderDegree, reorder.OrderBFS} {
			perm, err := reorder.ComputeOrdering(kernelBench.g, ord)
			if err != nil {
				panic(err)
			}
			pg, err := graph.Permute(kernelBench.g, perm)
			if err != nil {
				panic(err)
			}
			kernelBench.walks[string(ord)] = graph.NewWalk(pg, graph.DanglingSelfLoop)
		}
	})
	return kernelBench.walks
}

// BenchmarkMulT times one full Ãᵀ·x application per kernel variant × node
// ordering: plain (the serial scatter) and f32 (the float32 scatter). edges/s is the cross-variant comparable rate.
func BenchmarkMulT(b *testing.B) {
	walks := kernelWalks(b)
	edges := float64(kernelBench.g.NumEdges())
	for _, kind := range []string{"plain", "f32"} {
		for _, ord := range []string{"natural", "degree", "bfs"} {
			w := walks[ord]
			b.Run(kind+"-"+ord, func(b *testing.B) {
				n := w.N()
				x := make(sparse.Vector, n)
				y := make(sparse.Vector, n)
				for i := range x {
					x[i] = 1 / float64(n)
				}
				b.ReportAllocs()
				b.ResetTimer()
				switch kind {
				case "plain":
					for i := 0; i < b.N; i++ {
						w.MulT(x, y)
					}
				case "f32":
					x32 := sparse.Round32(x, sparse.NewVector32(n))
					y32 := sparse.NewVector32(n)
					for i := 0; i < b.N; i++ {
						w.MulT32(x32, y32)
					}
				}
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(b.N)*edges/sec, "edges/s")
				}
			})
		}
	}
}

var orderedBench struct {
	once sync.Once
	engs map[string]*Engine
}

// orderedBenchEngines builds the QueryBatch acceptance matrix on the kernel
// SBM graph: the natural-order float64 baseline against layout/precision
// variants. All engines answer in external ids, so the workload is
// identical by construction.
func orderedBenchEngines(b *testing.B) map[string]*Engine {
	b.Helper()
	kernelWalks(b) // force graph generation outside the timer
	orderedBench.once.Do(func() {
		orderedBench.engs = map[string]*Engine{}
		for _, v := range []struct {
			name  string
			order string
			prec  Precision
		}{
			{"natural-f64", "", Float64},
			{"degree-f64", "degree", Float64},
			{"degree-f32", "degree", Float32},
		} {
			o := Defaults()
			o.Order, o.Precision = v.order, v.prec
			eng, err := New(kernelBench.g, o)
			if err != nil {
				panic(err)
			}
			orderedBench.engs[v.name] = eng
		}
	})
	return orderedBench.engs
}

// BenchmarkQueryBatchOrdered is the acceptance benchmark for the layout +
// precision work: the degree-ordered float32 engine must clearly beat the
// natural-order float64 baseline on the same 100k-node SBM workload.
func BenchmarkQueryBatchOrdered(b *testing.B) {
	engs := orderedBenchEngines(b)
	seeds := make([]int, batchBenchSize)
	for i := range seeds {
		seeds[i] = (i * 104729) % kernelBenchNodes
	}
	for _, name := range []string{"natural-f64", "degree-f64", "degree-f32"} {
		eng := engs[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.QueryBatch(seeds, 8); err != nil {
					b.Fatal(err)
				}
			}
			reportQPS(b)
		})
	}
}
