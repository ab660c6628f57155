// Package tpa is the public API of this repository: a Go implementation of
// TPA (Two Phase Approximation), the fast, scalable and accurate
// approximate random-walk-with-restart method of Yoon, Jung and Kang
// (ICDE 2018), together with the substrates it is built on.
//
// The typical flow is:
//
//	g, _ := tpa.LoadGraph("edges.tsv")        // or tpa.NewGraphBuilder()
//	eng, _ := tpa.New(g, tpa.Defaults())      // preprocessing phase (once)
//	scores, _ := eng.Query(seed)              // online phase (per seed)
//	top, _ := eng.TopK(seed, 100)
//	batch, _ := eng.QueryBatch(seeds, 8)      // fan out over 8 workers
//	eng2, _, _ := eng.ApplyEdges(adds, dels)  // evolve the graph in place
//
// Preprocessing runs a single PageRank-style cumulative power iteration and
// stores one float64 per node; queries run only S propagation steps from
// the seed, so they are orders of magnitude cheaper than exact solvers.
// The approximation obeys ‖r_exact − r_TPA‖₁ ≤ 2(1-c)^S (Theorem 2 of the
// paper) and is far more accurate in practice on graphs with community
// structure.
//
// For validation, Exact computes the true RWR vector by cumulative power
// iteration run to convergence.
package tpa

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"tpa/internal/core"
	"tpa/internal/gen"
	"tpa/internal/graph"
	"tpa/internal/method"
	"tpa/internal/mmapio"
	"tpa/internal/reorder"
	"tpa/internal/rwr"
	"tpa/internal/sparse"
	"tpa/internal/stream"
)

// Graph is a directed graph in compressed sparse row form.
type Graph = graph.Graph

// GraphBuilder accumulates edges and produces an immutable Graph.
type GraphBuilder = graph.Builder

// Entry is a node/score pair returned by TopK.
type Entry = sparse.Entry

// NewGraphBuilder returns a builder that infers the node count from ids.
func NewGraphBuilder() *GraphBuilder { return graph.NewBuilder() }

// LoadGraph reads a whitespace-separated edge list from path (".gz"
// supported).
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// ReadGraph reads an edge list from r.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// SaveGraph writes g to path as an edge list (".gz" supported).
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }

// SaveGraphBinary writes g to path in the compact binary CSR snapshot
// format — the graph-only artifact; see Engine.SaveSnapshot for the
// combined graph+index form.
func SaveGraphBinary(path string, g *Graph) error { return graph.SaveBinaryFile(path, g) }

// LoadGraphBinary reads a graph written by SaveGraphBinary. Decode
// failures wrap ErrBadSnapshot.
func LoadGraphBinary(path string) (*Graph, error) { return graph.LoadBinaryFile(path) }

// RandomCommunityGraph generates a synthetic graph with planted community
// structure and skewed degrees — the structure TPA is designed for. It is
// handy for experiments when no real dataset is at hand.
func RandomCommunityGraph(nodes int, edges int64, communities int, seed int64) *Graph {
	return gen.CommunityRMAT(nodes, edges, communities, 0.2, seed)
}

// RandomSBMGraph generates a stochastic-block-model graph with k equal
// communities and the given intra-community edge probability pin
// (e.g. 0.95 for very tight communities). avgOutDeg sets the expected
// out-degree.
func RandomSBMGraph(nodes, communities int, avgOutDeg, pin float64, seed int64) *Graph {
	return gen.SBM(gen.SBMConfig{Nodes: nodes, Communities: communities,
		AvgOutDeg: avgOutDeg, PIn: pin, Seed: seed, Uniform: true})
}

// Options configure an Engine.
type Options struct {
	// C is the restart probability (default 0.15).
	C float64
	// Eps is the convergence tolerance of the preprocessing iteration
	// (default 1e-9).
	Eps float64
	// S is the first iteration of the neighbor part: queries compute
	// exactly S propagation steps. Larger S = slower and more accurate
	// (default 5).
	S int
	// T is the first iteration of the stranger part, estimated by
	// PageRank (default 10). Must exceed S.
	T int
	// Workers bounds the goroutines used for parallel work: New shards the
	// preprocessing matvec over this many row blocks, and QueryBatch/
	// TopKBatch default to this pool size. 0 means GOMAXPROCS.
	Workers int
	// CompactAfter is the staleness fraction (mutations since the last
	// compaction relative to the base edge count) at which ApplyEdges
	// compacts the delta overlay into a fresh CSR. 0 means the default
	// (0.1); negative compacts on every batch.
	CompactAfter float64
	// MaxResidual is the L1 reindex residual above which ApplyEdges
	// abandons the incremental index correction and reruns full
	// preprocessing. 0 means the default (core.DefaultMaxResidual);
	// negative forces a full rebuild on every batch (useful for
	// benchmarking the incremental path against it).
	MaxResidual float64
	// Order selects the build-time node ordering: "natural" (or empty, the
	// default), "degree", "bfs" or "hubspoke". Non-natural orderings permute
	// the CSR for cache locality before preprocessing; node ids stay the
	// caller's — the engine remaps seeds and results at the API boundary, so
	// answers are identical to a natural-order engine up to float summation
	// order. Requires an in-memory graph (NewFromEdgeFile rejects it).
	Order string
	// Precision selects the storage precision of the CPI index: Float64
	// (the default) or Float32, which halves the index and runs the online
	// propagation in float32 (the float64 preprocessing master is kept for
	// reindexing, so mutation accuracy is unaffected). The Theorem-2 bound
	// still holds up to float32 rounding (~1e-4 L1 at default parameters).
	Precision Precision
}

// Precision is the storage precision of the CPI index (see
// Options.Precision).
type Precision = core.Precision

// Index precision variants.
const (
	Float64 = core.Float64
	Float32 = core.Float32
)

// ParsePrecision parses a -precision flag value: "", "64", "f64", "float64"
// → Float64; "32", "f32", "float32" → Float32.
func ParsePrecision(s string) (Precision, error) { return core.ParsePrecision(s) }

// Orders lists the recognized Options.Order values.
func Orders() []string {
	os := reorder.Orders()
	out := make([]string, len(os))
	for i, o := range os {
		out[i] = string(o)
	}
	return out
}

// Defaults returns the paper's standard configuration: c = 0.15, ε = 1e-9,
// S = 5, T = 10.
func Defaults() Options { return Options{C: 0.15, Eps: 1e-9, S: 5, T: 10} }

// defaultCompactAfter is the Options.CompactAfter default: compact once
// pending mutations reach 10% of the base edges.
const defaultCompactAfter = 0.1

func (o Options) split() (rwr.Config, core.Params) {
	return rwr.Config{C: o.C, Eps: o.Eps}, core.Params{S: o.S, T: o.T}
}

// Engine is a preprocessed TPA instance bound to one graph. It is safe for
// concurrent Query/TopK calls. Engines are immutable: ApplyEdges returns a
// NEW engine serving the mutated graph while the receiver keeps serving the
// old one, so a server can swap engines atomically under live traffic.
type Engine struct {
	tpa *core.TPA
	// walk retains the in-memory operator when the engine serves a plain
	// CSR (nil for streaming engines and for engines carrying an
	// uncompacted mutation overlay).
	walk *graph.Walk
	// dwalk is the overlay operator of an engine with pending (uncompacted)
	// edge mutations; exactly one of walk/dwalk is non-nil for in-memory
	// engines, both are nil for streaming engines.
	dwalk *graph.DeltaWalk
	// workers is the default parallelism for batch queries (0 = GOMAXPROCS).
	workers int
	// compactAfter / maxResidual are the mutation thresholds, resolved from
	// Options (snapshot- and index-loaded engines use the defaults).
	compactAfter float64
	maxResidual  float64
	// perm/inv are the build-time ordering maps (perm[internal] = external,
	// inv[external] = internal), both nil on natural-order engines. See
	// remap.go: they are applied only at this API boundary.
	perm, inv []int32
	// order is the Options.Order the engine was built with ("" for
	// natural-order and snapshot-loaded engines).
	order string
	// shardBounds are the shard boundaries of a sharded engine's layout in
	// internal id space (nil otherwise): metadata for snapshots and stats,
	// not a unit of query execution.
	shardBounds []int
	// snap pins the memory-mapped snapshot an mmap-loaded engine serves
	// from (nil for heap engines); Close releases the mapping.
	snap *mmapio.Snapshot
}

// Order returns the build-time node ordering the engine was constructed
// with ("degree", "bfs", ...). Empty means natural order — except for
// reordered engines loaded from a snapshot, which report "" with a non-nil
// Permutation (the snapshot stores the permutation, not the heuristic that
// produced it).
func (e *Engine) Order() string { return e.order }

// Permutation returns a copy of the build-time ordering map
// perm[internal] = external, or nil for natural-order engines. All public
// APIs already speak external ids; this is for introspection and tests.
func (e *Engine) Permutation() []int32 {
	if e.perm == nil {
		return nil
	}
	out := make([]int32, len(e.perm))
	copy(out, e.perm)
	return out
}

// Precision returns the storage precision of the engine's index.
func (e *Engine) Precision() Precision { return e.tpa.Precision() }

// applyOrdering resolves Options.Order against g: it returns the graph the
// engine should preprocess (g itself for natural order), the
// perm[internal]=external / inv[external]=internal maps (nil for natural),
// and the canonical ordering name.
func applyOrdering(g *Graph, order string) (*Graph, []int32, []int32, string, error) {
	ord, err := reorder.ParseOrder(order)
	if err != nil {
		return nil, nil, nil, "", fmt.Errorf("tpa: %w", err)
	}
	perm, err := reorder.ComputeOrdering(g, ord)
	if err != nil {
		return nil, nil, nil, "", fmt.Errorf("tpa: ordering: %w", err)
	}
	if perm == nil {
		return g, nil, nil, string(ord), nil
	}
	pg, err := graph.Permute(g, perm)
	if err != nil {
		return nil, nil, nil, "", fmt.Errorf("tpa: ordering: %w", err)
	}
	return pg, perm, graph.InvertPermutation(perm), string(ord), nil
}

// applyMutationOpts resolves the dynamic-update thresholds from o.
func (e *Engine) applyMutationOpts(o Options) {
	e.compactAfter = o.CompactAfter
	if e.compactAfter == 0 {
		e.compactAfter = defaultCompactAfter
	}
	e.maxResidual = o.MaxResidual
	if e.maxResidual == 0 {
		e.maxResidual = core.DefaultMaxResidual
	}
}

// New runs TPA's preprocessing phase on g and returns a queryable Engine.
// The preprocessing sparse-matvec is sharded over Options.Workers row-block
// goroutines (0 = GOMAXPROCS); the online phase stays serial per query, with
// QueryBatch providing cross-query parallelism.
func New(g *Graph, o Options) (*Engine, error) {
	cfg, params := o.split()
	pg, perm, inv, order, err := applyOrdering(g, o.Order)
	if err != nil {
		return nil, err
	}
	w := graph.NewWalk(pg, graph.DanglingSelfLoop)
	tp, err := core.PreprocessParallel(w, cfg, params, o.Workers)
	if err != nil {
		return nil, fmt.Errorf("tpa: preprocessing: %w", err)
	}
	if err := tp.SetPrecision(o.Precision); err != nil {
		return nil, fmt.Errorf("tpa: %w", err)
	}
	e := &Engine{tpa: tp, walk: w, workers: o.Workers,
		perm: perm, inv: inv, order: order}
	e.applyMutationOpts(o)
	return e, nil
}

// AutoTune selects S and T for the graph (sampling a few exact queries)
// and returns the tuned engine. maxBound caps the Theorem-2 error bound
// 2(1-c)^S; pass 0 for the default 0.9.
func AutoTune(g *Graph, o Options, maxBound float64, sampleSeeds []int) (*Engine, error) {
	cfg, _ := o.split()
	pg, perm, inv, order, err := applyOrdering(g, o.Order)
	if err != nil {
		return nil, err
	}
	if inv != nil && len(sampleSeeds) > 0 {
		// Sample seeds are external ids like every other API input.
		mapped := make([]int, len(sampleSeeds))
		for i, s := range sampleSeeds {
			if s >= 0 && s < len(inv) {
				s = int(inv[s])
			}
			mapped[i] = s
		}
		sampleSeeds = mapped
	}
	w := graph.NewWalk(pg, graph.DanglingSelfLoop)
	params, err := core.SelectParams(w, cfg, maxBound, sampleSeeds)
	if err != nil {
		return nil, fmt.Errorf("tpa: tuning: %w", err)
	}
	tp, err := core.PreprocessParallel(w, cfg, params, o.Workers)
	if err != nil {
		return nil, fmt.Errorf("tpa: preprocessing: %w", err)
	}
	if err := tp.SetPrecision(o.Precision); err != nil {
		return nil, fmt.Errorf("tpa: %w", err)
	}
	e := &Engine{tpa: tp, walk: w, workers: o.Workers,
		perm: perm, inv: inv, order: order}
	e.applyMutationOpts(o)
	return e, nil
}

// Query returns the approximate RWR score vector for the seed node
// (length = number of nodes, sums to ≈1).
func (e *Engine) Query(seed int) ([]float64, error) {
	r, err := e.tpa.Query(e.toInternal(seed))
	if err != nil {
		return nil, err
	}
	return e.toExternalVec(r), nil
}

// QuerySet returns approximate personalized PageRank for a set of seed
// nodes (the walk restarts uniformly over the set) — e.g. a user's whole
// reading history rather than a single item.
func (e *Engine) QuerySet(seeds []int) ([]float64, error) {
	r, err := e.tpa.QuerySet(e.toInternalSeeds(seeds))
	if err != nil {
		return nil, err
	}
	return e.toExternalVec(r), nil
}

// QueryBatch answers one query per seed, fanned out over a pool of
// parallelism worker goroutines with pooled scratch vectors, so the
// per-query allocation is just the returned vector. parallelism ≤ 0 uses
// Options.Workers (or GOMAXPROCS if that was 0 too). Results[i] corresponds
// to seeds[i]; a single out-of-range seed fails the whole batch up front.
// Streaming engines (NewFromEdgeFile) run the batch serially: the disk
// operator has one file cursor.
func (e *Engine) QueryBatch(seeds []int, parallelism int) ([][]float64, error) {
	if e.perm == nil {
		rs, err := e.tpa.QueryBatch(seeds, e.batchWorkers(parallelism))
		if err != nil {
			return nil, err
		}
		out := make([][]float64, len(rs))
		for i, r := range rs {
			out[i] = r
		}
		return out, nil
	}
	// Reordered engines scatter each answer straight from the pooled
	// internal scratch into the returned external-order vector, so the
	// permutation costs no extra allocation per query.
	out := make([][]float64, len(seeds))
	err := e.tpa.QueryBatchEach(e.toInternalSeeds(seeds), e.batchWorkers(parallelism), func(i int, r sparse.Vector) {
		dst := make([]float64, len(r))
		for j, v := range r {
			dst[e.perm[j]] = v
		}
		out[i] = dst
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TopKBatch answers a top-k query per seed with the same worker pool as
// QueryBatch, returning only the k best entries per seed — full score
// vectors never leave the scratch pool. This is the call production batch
// endpoints should use.
func (e *Engine) TopKBatch(seeds []int, k, parallelism int) ([][]Entry, error) {
	tops, err := e.tpa.TopKBatch(e.toInternalSeeds(seeds), k, e.batchWorkers(parallelism))
	if err != nil {
		return nil, err
	}
	for i := range tops {
		tops[i] = e.toExternalEntries(tops[i])
	}
	return tops, nil
}

func (e *Engine) batchWorkers(parallelism int) int {
	if e.walk == nil && e.dwalk == nil {
		return 1 // streaming operator: single shared file cursor
	}
	if parallelism <= 0 {
		parallelism = e.workers
	}
	return parallelism
}

// TopK returns the k nodes most relevant to the seed, highest score first.
func (e *Engine) TopK(seed, k int) ([]Entry, error) {
	top, err := e.tpa.TopK(e.toInternal(seed), k)
	if err != nil {
		return nil, err
	}
	return e.toExternalEntries(top), nil
}

// NewMethod builds a named alternative engine (see the internal/method
// registry: "fora", "bear", "mc", "exact", ...) preprocessed over this
// engine's graph with this engine's RWR configuration, so its answers
// address the same problem the TPA index answers. This is the capability
// the HTTP server's ?method= parameter serves through. It fails for
// engines without an in-memory CSR graph (streaming engines and engines
// carrying an uncompacted mutation overlay; errors.Is
// method.ErrUnavailable) and for unregistered names (errors.Is
// method.ErrUnknownMethod).
//
// Preprocessing cost is the named method's own — potentially far above
// TPA's. The returned Method is NOT safe for concurrent queries unless it
// declares the method.Concurrent capability ("tpa" and "exact" do);
// callers must serialize the rest (the server does).
func (e *Engine) NewMethod(name string) (method.Method, error) {
	if e.walk == nil {
		return nil, fmt.Errorf("tpa: engine has no in-memory CSR graph (streaming or uncompacted overlay): %w", method.ErrUnavailable)
	}
	m, err := method.New(name)
	if err != nil {
		return nil, err
	}
	if err := m.Preprocess(e.walk, e.tpa.Config()); err != nil {
		return nil, err
	}
	if e.perm != nil {
		// Alternative methods preprocess over the reordered (internal) graph
		// for the same locality win as the native engine; the decorator keeps
		// their answers in external ids.
		return &remapMethod{m: m, perm: e.perm, inv: e.inv}, nil
	}
	return m, nil
}

// QueryMeta describes how a deadline-aware query completed: whether the
// context expired mid-computation (Partial), the split point actually
// realized (EffectiveS ≤ S), and the Theorem-2 bound 2(1-c)^EffectiveS the
// returned answer is guaranteed to meet. See QueryDeadline.
type QueryMeta = core.QueryMeta

// QueryDeadline is Query honoring ctx. TPA's online phase accumulates the
// answer one propagation step at a time, so a query cut short after S' < S
// steps is not a failure — it is a valid TPA approximation with split point
// S', within 2(1-c)^S' of exact RWR (Theorem 2). When ctx expires
// mid-computation the head computed so far is rescaled by the Lemma-2
// masses for S' and returned flagged Partial; an unexpired ctx reproduces
// Query exactly. This is the engine half of SLO-driven serving: a deadline
// degrades accuracy, never availability.
func (e *Engine) QueryDeadline(ctx context.Context, seed int) ([]float64, QueryMeta, error) {
	r, meta, err := e.tpa.QueryDeadline(ctx, e.toInternal(seed))
	if err != nil {
		return nil, meta, err
	}
	return e.toExternalVec(r), meta, nil
}

// TopKDeadline is TopK honoring ctx, with the partial-answer contract of
// QueryDeadline.
func (e *Engine) TopKDeadline(ctx context.Context, seed, k int) ([]Entry, QueryMeta, error) {
	top, meta, err := e.tpa.TopKDeadline(ctx, e.toInternal(seed), k)
	if err != nil {
		return nil, meta, err
	}
	return e.toExternalEntries(top), meta, nil
}

// QuerySetDeadline is QuerySet honoring ctx, with the partial-answer
// contract of QueryDeadline.
func (e *Engine) QuerySetDeadline(ctx context.Context, seeds []int) ([]float64, QueryMeta, error) {
	r, meta, err := e.tpa.QuerySetDeadline(ctx, e.toInternalSeeds(seeds))
	if err != nil {
		return nil, meta, err
	}
	return e.toExternalVec(r), meta, nil
}

// TopKBatchDeadline is TopKBatch honoring ctx: all seeds share the budget,
// and each seed degrades independently when it expires — early seeds
// complete at full S, late seeds come back Partial. Metas[i] describes
// seeds[i].
func (e *Engine) TopKBatchDeadline(ctx context.Context, seeds []int, k, parallelism int) ([][]Entry, []QueryMeta, error) {
	tops, metas, err := e.tpa.TopKBatchDeadline(ctx, e.toInternalSeeds(seeds), k, e.batchWorkers(parallelism))
	if err != nil {
		return nil, nil, err
	}
	for i := range tops {
		tops[i] = e.toExternalEntries(tops[i])
	}
	return tops, metas, nil
}

// Params returns the S and T split points in effect.
func (e *Engine) Params() (s, t int) {
	p := e.tpa.Params()
	return p.S, p.T
}

// ErrorBound returns the a-priori L1 error guarantee 2(1-c)^S of Theorem 2.
func (e *Engine) ErrorBound() float64 { return e.tpa.ErrorBound() }

// IndexBytes returns the size of the preprocessed data as shipped (8 bytes
// per node, or 4 for Float32 engines).
func (e *Engine) IndexBytes() int64 { return e.tpa.IndexBytes() }

// Graph returns the in-memory CSR graph the engine serves, or nil for
// streaming engines and for engines carrying uncompacted mutations (call
// Compact first to materialize those as a fresh CSR). For reordered
// engines (Options.Order) this is the INTERNAL, permuted graph; use
// Permutation to translate its node ids back to external ones.
func (e *Engine) Graph() *Graph {
	if e.walk == nil {
		return nil
	}
	return e.walk.Graph()
}

// NumNodes returns the node count of the served graph.
func (e *Engine) NumNodes() int { return e.tpa.Walk().N() }

// Staleness reports the pending mutation overlay's size relative to the
// base CSR (see graph.Delta.Staleness): 0 for engines with no uncompacted
// mutations. Auto-compaction policies (internal/ingest) trigger on it.
func (e *Engine) Staleness() float64 {
	if e.dwalk == nil {
		return 0
	}
	return e.dwalk.Delta().Staleness()
}

// NumEdges returns the edge count of the served graph, including pending
// (uncompacted) mutations; -1 when unknown (streaming engines).
func (e *Engine) NumEdges() int64 {
	switch {
	case e.dwalk != nil:
		return e.dwalk.Delta().NumEdges()
	case e.walk != nil:
		return e.walk.Graph().NumEdges()
	default:
		return -1
	}
}

// MutationStats reports what one ApplyEdges call did.
type MutationStats struct {
	// Added and Removed count the mutations that took effect (inserting an
	// existing edge or removing a missing one is a no-op).
	Added, Removed int
	// Nodes and Edges describe the mutated graph the new engine serves.
	Nodes int
	Edges int64
	// PendingOps is the overlay mutation count still awaiting compaction
	// (0 right after a compacting batch).
	PendingOps int64
	// Compacted reports that this batch pushed staleness past CompactAfter
	// and the overlay was merged into a fresh CSR.
	Compacted bool
	// Incremental reports the index was corrected incrementally rather
	// than rebuilt by full preprocessing.
	Incremental bool
	// Residual is the L1 residual mass the reindex had to correct.
	Residual float64
	// ReindexIters is the total propagation steps the reindex spent (head
	// recomputation plus correction, or the full-preprocess count).
	ReindexIters int
}

// ErrNotMutable is wrapped by ApplyEdges on engines that cannot take
// dynamic updates: streaming engines, memory-mapped engines (the snapshot
// is a read-only serving artifact) and sharded engines (the shard plan is
// computed at build time). Test with errors.Is.
var ErrNotMutable = errors.New("tpa: engine does not support dynamic updates")

// ErrBadEdge is wrapped by ApplyEdges when a batch references a node
// outside the graph's fixed node range — a caller mistake, as opposed to
// an internal reindexing failure. Test with errors.Is.
var ErrBadEdge = graph.ErrBadEdge

// ApplyEdges returns a new engine serving the graph with the edge batch
// applied: every edge of adds inserted, then every edge of removes deleted.
// The receiver is untouched and keeps answering queries, so a server can
// atomically swap the returned engine in with zero dropped requests — the
// same discipline as snapshot reload.
//
// Mutations ride on a delta overlay over the immutable CSR; once the
// accumulated staleness passes Options.CompactAfter the overlay is merged
// into a fresh CSR. The preprocessed index is corrected incrementally (a
// T-step head recomputation plus a residual CPI — see core.Reindex), falling
// back to full preprocessing when the residual exceeds Options.MaxResidual.
// A batch whose every edge is a no-op returns the receiver itself with no
// reindexing: the graph did not change.
//
// Edges must reference existing nodes — a bad id fails the whole batch
// with an error wrapping ErrBadEdge; growing the node set requires a
// rebuild with New. Streaming engines return an error wrapping
// ErrNotMutable.
func (e *Engine) ApplyEdges(adds, removes [][2]int) (*Engine, MutationStats, error) {
	var stats MutationStats
	if e.snap != nil {
		return nil, stats, fmt.Errorf("memory-mapped engine (rebuild and re-snapshot to mutate): %w", ErrNotMutable)
	}
	if e.shardBounds != nil {
		return nil, stats, fmt.Errorf("sharded engine (the shard plan is fixed at build time): %w", ErrNotMutable)
	}
	var d *graph.Delta
	var policy graph.DanglingPolicy
	switch {
	case e.dwalk != nil:
		d = e.dwalk.Delta().Clone()
		policy = e.dwalk.Policy()
	case e.walk != nil:
		d = graph.NewDelta(e.walk.Graph())
		policy = e.walk.Policy()
	default:
		return nil, stats, fmt.Errorf("streaming engine: %w", ErrNotMutable)
	}
	adds, err := e.toInternalEdges(adds)
	if err != nil {
		return nil, stats, fmt.Errorf("tpa: applying edges: %w", err)
	}
	removes, err = e.toInternalEdges(removes)
	if err != nil {
		return nil, stats, fmt.Errorf("tpa: applying edges: %w", err)
	}
	added, removed, err := d.Apply(adds, removes)
	if err != nil {
		return nil, stats, fmt.Errorf("tpa: applying edges: %w", err)
	}
	stats.Added, stats.Removed = added, removed
	stats.Nodes = e.NumNodes()
	if added == 0 && removed == 0 {
		// The whole batch was a no-op: the graph is unchanged, so the
		// receiver is the mutated engine. No reindex, no swap needed.
		stats.Incremental = true
		stats.Edges = e.NumEdges()
		if e.dwalk != nil {
			stats.PendingOps = e.dwalk.Delta().Ops()
		}
		return e, stats, nil
	}

	ne := &Engine{workers: e.workers, compactAfter: e.compactAfter, maxResidual: e.maxResidual,
		perm: e.perm, inv: e.inv, order: e.order}
	var op rwr.Operator
	if d.Staleness() >= e.compactAfter {
		ne.walk = graph.NewWalk(d.Compact(), policy)
		op = ne.walk
		stats.Compacted = true
	} else {
		ne.dwalk = graph.NewDeltaWalk(d, policy)
		op = ne.dwalk
		stats.PendingOps = d.Ops()
	}
	tp, rs, err := core.Reindex(e.tpa, op, e.workers, e.maxResidual)
	if err != nil {
		return nil, stats, fmt.Errorf("tpa: reindexing: %w", err)
	}
	ne.tpa = tp
	stats.Incremental = !rs.Full
	stats.Residual = rs.Residual
	stats.ReindexIters = rs.Iters()
	stats.Edges = ne.NumEdges()
	return ne, stats, nil
}

// Compact returns an engine serving the same graph with any pending
// mutation overlay merged into a fresh CSR (restoring Graph() and snapshot
// support). The index is reused as-is — compaction changes the
// representation, not the operator — so this is cheap: one O(n+m) CSR
// rebuild, no reindexing. Engines without pending mutations are returned
// unchanged.
func (e *Engine) Compact() (*Engine, error) {
	if e.dwalk == nil {
		return e, nil
	}
	w := graph.NewWalk(e.dwalk.Delta().Compact(), e.dwalk.Policy())
	tp, err := e.tpa.WithOperator(w)
	if err != nil {
		return nil, fmt.Errorf("tpa: compacting: %w", err)
	}
	return &Engine{tpa: tp, walk: w, workers: e.workers,
		compactAfter: e.compactAfter, maxResidual: e.maxResidual,
		perm: e.perm, inv: e.inv, order: e.order}, nil
}

// SaveIndex serializes the preprocessed state so it can be shipped to query
// servers and re-attached with LoadIndex.
func (e *Engine) SaveIndex(w io.Writer) error { return e.tpa.WriteIndex(w) }

// LoadIndex re-attaches a serialized index to its graph.
func LoadIndex(r io.Reader, g *Graph) (*Engine, error) {
	w := graph.NewWalk(g, graph.DanglingSelfLoop)
	tp, err := core.ReadIndex(r, w)
	if err != nil {
		return nil, fmt.Errorf("tpa: loading index: %w", err)
	}
	e := &Engine{tpa: tp, walk: w}
	e.applyMutationOpts(Options{})
	return e, nil
}

// ErrBadSnapshot is wrapped by every snapshot/index decode failure caused
// by the stream itself — bad magic, unsupported version, truncation, or
// checksum mismatch. Test with errors.Is; loaders never return partial
// state alongside it.
var ErrBadSnapshot = graph.ErrBadSnapshot

// SaveSnapshot writes a combined binary snapshot of the graph and the
// preprocessed index, so LoadSnapshot cold-starts an identical engine with
// two sequential reads — no edge-list parsing and no re-preprocessing.
// Streaming engines (NewFromEdgeFile) cannot snapshot; engines with pending
// mutations must Compact first.
func (e *Engine) SaveSnapshot(w io.Writer) error {
	if e.dwalk != nil {
		return fmt.Errorf("tpa: engine has pending mutations; Compact() before snapshotting")
	}
	if e.walk == nil {
		return fmt.Errorf("tpa: streaming engines cannot be snapshotted")
	}
	return core.WriteSnapshotPerm(w, e.tpa, e.perm)
}

// LoadSnapshot reconstructs an engine from a combined snapshot written by
// SaveSnapshot. Decode failures wrap ErrBadSnapshot.
func LoadSnapshot(r io.Reader) (*Engine, error) {
	w, tp, perm, err := core.ReadSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("tpa: loading snapshot: %w", err)
	}
	e := &Engine{tpa: tp, walk: w, perm: perm}
	if perm != nil {
		e.inv = graph.InvertPermutation(perm)
	}
	e.applyMutationOpts(Options{})
	return e, nil
}

// SaveSnapshotFile writes the engine's combined snapshot to path. The
// write goes to a temporary file renamed into place on success, so an
// interrupted save (a killed `tpad build`) never leaves a truncated
// snapshot behind to poison the next `tpad serve -graphs` startup.
func (e *Engine) SaveSnapshotFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := e.SaveSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadSnapshotFile reconstructs an engine from a snapshot file written by
// SaveSnapshotFile or SaveSnapshotMmap, auto-detected from the magic
// number: TPAM containers are memory-mapped (see LoadSnapshotMmap), legacy
// TPAS snapshots are decoded onto the heap. The file size bounds the
// header's length fields, so a corrupt or crafted file fails typed instead
// of attempting a giant allocation.
func LoadSnapshotFile(path string) (*Engine, error) {
	if ok, err := isMmapSnapshot(path); err == nil && ok {
		return LoadSnapshotMmap(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	w, tp, perm, err := core.ReadSnapshotBounded(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("tpa: loading snapshot %s: %w", path, err)
	}
	e := &Engine{tpa: tp, walk: w, perm: perm}
	if perm != nil {
		e.inv = graph.InvertPermutation(perm)
	}
	e.applyMutationOpts(Options{})
	return e, nil
}

// CreateEdgeFile converts g to the binary streaming format at path, for
// disk-based operation (the paper's §VI future work): propagation steps
// become sequential file scans and resident memory stays O(n).
func CreateEdgeFile(path string, g *Graph) error {
	ef, err := stream.Create(path, g)
	if err != nil {
		return err
	}
	return ef.Close()
}

// NewFromEdgeFile runs TPA's preprocessing phase directly against a
// disk-resident edge file produced by CreateEdgeFile. The returned engine
// streams the file on every query, so it handles graphs larger than
// memory; it must not be queried concurrently (one shared file cursor).
func NewFromEdgeFile(path string, o Options) (*Engine, error) {
	cfg, params := o.split()
	if ord, err := reorder.ParseOrder(o.Order); err != nil {
		return nil, fmt.Errorf("tpa: %w", err)
	} else if ord != reorder.OrderNatural {
		return nil, fmt.Errorf("tpa: Options.Order %q requires an in-memory graph (streaming engines scan the edge file in natural order)", o.Order)
	}
	if o.Precision != Float64 {
		return nil, fmt.Errorf("tpa: Options.Precision float32 requires an in-memory graph (the streaming operator has no float32 kernel)")
	}
	ef, err := stream.Open(path)
	if err != nil {
		return nil, err
	}
	tp, err := core.Preprocess(ef, cfg, params)
	if err != nil {
		ef.Close()
		return nil, fmt.Errorf("tpa: preprocessing (streaming): %w", err)
	}
	return &Engine{tpa: tp}, nil
}

// Exact computes the exact RWR vector for the seed by cumulative power
// iteration run to convergence — the ground truth TPA approximates. It
// needs no preprocessing but costs log_{1-c}(ε/c) ≈ 130 propagation steps
// per query at the defaults.
func Exact(g *Graph, seed int, o Options) ([]float64, error) {
	cfg, _ := o.split()
	w := graph.NewWalk(g, graph.DanglingSelfLoop)
	r, err := core.ExactRWR(w, seed, cfg)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// PageRank computes the global PageRank vector of g (RWR with every node
// as seed).
func PageRank(g *Graph, o Options) ([]float64, error) {
	cfg, _ := o.split()
	w := graph.NewWalk(g, graph.DanglingSelfLoop)
	r, err := core.PageRankCPI(w, cfg)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// TopKOf ranks an arbitrary score vector, highest first.
func TopKOf(scores []float64, k int) []Entry { return sparse.Vector(scores).TopK(k) }
