package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"tpa"
	"tpa/internal/core"
	"tpa/internal/graph"
	"tpa/internal/rwr"
	"tpa/internal/sparse"
)

// perLayer lists every per-layer metric with its unit, in report order. A
// layer the workload's path does not cross reports 0 (it did no work).
var perLayer = []struct{ name, unit string }{
	{"tail.p99_ms", "ms"},
	{"driver.late_p99_ms", "ms"},
	{"driver.inflight_max", "count"},
	{"net.overhead_mean_ms", "ms"},
	{"server.handler_p50_ms", "ms"},
	{"server.self_mean_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_hits", "count"},
	{"server.cache_lookups", "count"},
	{"server.shed", "count"},
	{"server.edges_handler_p50_ms", "ms"},
	{"engine.topk_p50_ms", "ms"},
	{"engine.topk_p99_ms", "ms"},
	{"engine.topk_calls", "count"},
	{"engine.batch_p50_ms", "ms"},
	{"engine.batch_calls", "count"},
	{"engine.apply_p50_ms", "ms"},
	{"engine.apply_edges_per_call", "count"},
	{"core.query_mean_ms", "ms"},
	{"core.dense_mean_ms", "ms"},
	{"core.query_edges_per_s", "edges/s"},
	{"core.preprocess_s", "s"},
	{"core.replay_queries", "count"},
	{"graph.mult_calls_per_query", "count"},
	{"graph.mult_mean_ms", "ms"},
	{"graph.mult_share", "ratio"},
	{"shard.build_s", "s"},
	{"shard.slowdown_x", "x"},
	{"snapshot.save_s", "s"},
	{"snapshot.load_ms", "ms"},
	{"snapshot.mapped_mb", "MiB"},
	{"ingest.queue_depth_max", "count"},
	{"ingest.edges_per_apply", "count"},
	{"ingest.applies", "count"},
	{"ingest.apply_errors", "count"},
	{"ingest.compactions", "count"},
	{"ingest.write_ack_p50_ms", "ms"},
	{"ingest.visible_p50_ms", "ms"},
	{"host.steal_pct", "%"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"ledger.client_mean_ms", "ms"},
	{"ledger.net_ms", "ms"},
	{"ledger.server_self_ms", "ms"},
	{"ledger.engine_ms", "ms"},
	{"ledger.core_dense_ms", "ms"},
	{"ledger.graph_mult_ms", "ms"},
	{"ledger.unexplained_ms", "ms"},
	{"ledger.engine_calls_per_request", "ratio"},
	{"overhead.p50_ms", "ms"},
	{"overhead.p99_ms", "ms"},
	{"overhead.capacity_pct", "%"},
}

// ledgerInput is everything a traced run hands to the per-layer ledger.
type ledgerInput struct {
	b                       *bench
	d                       *driver
	st                      *stack
	setups                  []setupRecord
	g                       *tpa.Graph
	ref                     *tpa.Engine // heap, natural-order, unsharded
	untraced, traced        *phaseResult
	spans                   []span
	polls                   []statSample // kindMixed: the whole run
	statsBefore, statsAfter statSample   // read workloads: around the traced half
}

// build fills m with every per-layer metric, prints the ledger table and
// writes the spans and the table under the run's output directory.
func (l *ledgerInput) build(m map[string]metric) error {
	v := make(map[string]float64)
	var notes []string
	note := func(format string, a ...interface{}) { notes = append(notes, fmt.Sprintf(format, a...)) }
	b, w := l.b, l.b.w

	// driver and runtime: the untraced half, which the end-to-end
	// figures come from.
	op := b.mainOp()
	u := l.untraced
	measured := u.open
	if w.kind == kindBatch {
		measured = u.capacity
	}
	v["driver.late_p99_ms"] = quantile(summarize(measured, op).lateMS, 0.99)
	v["driver.inflight_max"] = float64(maxOutstanding(measured))
	ops := len(u.capacity) + len(u.open)
	v["runtime.alloc_bytes_per_op"] = ratio(float64(u.allocBytes), float64(ops))
	v["runtime.gc_cycles"] = float64(u.gcCycles)
	v["runtime.gc_pause_total_ms"] = ms(u.gcPause)
	v["host.steal_pct"] = u.stealPct

	// Spans of the traced half: one accounting row per main request.
	self := selfTimes(l.spans)
	kids := make(map[int64][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	mainRoute := "server.topk"
	if op == opBatch {
		mainRoute = "server.batch"
	}
	var client, netMS, handler, handlerSelf, engine []float64
	var edgesHandler, engK, engB []float64
	orphans := 0
	for _, s := range l.spans {
		switch s.Name {
		case spanEngineK:
			engK = append(engK, ms(s.dur()))
		case spanEngineB:
			engB = append(engB, ms(s.dur()))
		case spanEdges:
			edgesHandler = append(edgesHandler, ms(s.dur()))
		}
		if (s.Name == spanEngineK || s.Name == spanEngineB) && s.Parent == 0 {
			orphans++
		}
		if s.Name != spanClient {
			continue
		}
		var h *span
		for _, c := range kids[s.ID] {
			if c.Name == mainRoute {
				c := c
				h = &c
			}
		}
		if h == nil {
			continue
		}
		eng := 0.0
		for _, c := range kids[h.ID] {
			eng += ms(c.dur())
		}
		client = append(client, ms(s.dur()))
		netMS = append(netMS, ms(s.dur()-h.dur()))
		handler = append(handler, ms(h.dur()))
		handlerSelf = append(handlerSelf, ms(self[h.ID]))
		engine = append(engine, eng)
	}
	if orphans > 0 {
		note("%d engine spans matched no request", orphans)
	}
	requests := float64(len(client))
	engineCalls := len(engK) + len(engB)
	v["net.overhead_mean_ms"] = mean(netMS)
	v["server.handler_p50_ms"] = median(handler)
	v["server.self_mean_ms"] = mean(handlerSelf)
	v["server.edges_handler_p50_ms"] = median(edgesHandler)

	// Engine calls the traffic did not make (or, on kindMixed, could not
	// be wrapped for) are timed directly on the served engine.
	var probed []string
	var err error
	if len(engK) == 0 {
		if engK, err = timeTopK(l.st.eng, l.probeSeeds()); err != nil {
			return err
		}
		probed = append(probed, "engine.topk_*")
	}
	if len(engB) == 0 {
		if engB, err = timeTopKBatch(l.st.eng, l.probeBatches(), b.workers); err != nil {
			return err
		}
		probed = append(probed, "engine.batch_*")
	}
	v["engine.topk_p50_ms"] = median(engK)
	v["engine.topk_p99_ms"] = quantile(engK, 0.99)
	v["engine.topk_calls"] = float64(len(engK))
	v["engine.batch_p50_ms"] = median(engB)
	v["engine.batch_calls"] = float64(len(engB))
	for _, s := range l.traced.samples() {
		if !s.ok && strings.HasPrefix(s.err, "status 503") {
			v["server.shed"]++
		}
	}

	// Cache: /stats counters around the traced half; on kindMixed every
	// engine swap starts a fresh cache partition, so the polled counters
	// are summed across resets.
	var hits, lookups int64
	if w.kind == kindMixed {
		hits, lookups = cacheDelta(pollsBetween(l.polls, l.traced.from, l.traced.to))
	} else {
		hits, lookups = cacheDelta([]statSample{l.statsBefore, l.statsAfter})
	}
	v["server.cache_hits"] = float64(hits)
	v["server.cache_lookups"] = float64(lookups)
	v["server.cache_hit_ratio"] = ratio(float64(hits), float64(lookups))

	// core and graph: replay the traced half's read seeds through the
	// online phase over a timed walk.
	rp, err := replayCore(l.g, l.replaySeeds(), l.replayBatches(), b.workers)
	if err != nil {
		return err
	}
	queryMS := ratio(ms(rp.queryTime), float64(rp.queries))
	multPerQuery := ratio(float64(rp.multCalls), float64(rp.queries))
	multMSPerQuery := ratio(ms(rp.multTime), float64(rp.queries))
	denseMS := queryMS - multMSPerQuery
	v["core.query_mean_ms"] = queryMS
	v["core.dense_mean_ms"] = denseMS
	v["core.query_edges_per_s"] = ratio(float64(l.g.NumEdges())*multPerQuery, rp.queryTime.Seconds()/float64(max(rp.queries, 1)))
	v["core.preprocess_s"] = rp.preprocess.Seconds()
	v["core.replay_queries"] = float64(rp.queries)
	v["graph.mult_calls_per_query"] = multPerQuery
	v["graph.mult_mean_ms"] = ratio(ms(rp.multTime), float64(rp.multCalls))
	v["graph.mult_share"] = ratio(multMSPerQuery, queryMS)

	// Ledger: client = net + server self + engine, exactly, per request;
	// engine = core dense + graph MulT (replayed) + unexplained.
	callsPerReq := ratio(float64(engineCalls), requests)
	engineMS := mean(engine)
	serverSelf := mean(handlerSelf)
	perCallDense, perCallMult := denseMS, multMSPerQuery
	if op == opBatch {
		batchMS := ratio(ms(rp.batchTime), float64(rp.batches))
		perCallDense = batchMS * ratio(denseMS, queryMS)
		perCallMult = batchMS * ratio(multMSPerQuery, queryMS)
	}
	if w.kind == kindMixed {
		// The ingest path needs the concrete *tpa.Engine, so the engine is
		// not wrapped: its calls are estimated from the cache misses and
		// its time from direct Engine.TopK calls on the base engine, and
		// taken out of the server's self time. Queries served on an
		// overlay after an apply cost more; the excess stays in server
		// self.
		callsPerReq = ratio(float64(lookups-hits), float64(lookups))
		engineMS = callsPerReq * mean(engK)
		serverSelf -= engineMS
		note("engine not wrapped on %s: engine calls estimated from cache misses, engine time from %d direct Engine.TopK calls", w.name, len(engK))
	}
	v["ledger.client_mean_ms"] = mean(client)
	v["ledger.net_ms"] = mean(netMS)
	v["ledger.server_self_ms"] = serverSelf
	v["ledger.engine_ms"] = engineMS
	v["ledger.engine_calls_per_request"] = callsPerReq
	v["ledger.core_dense_ms"] = callsPerReq * perCallDense
	v["ledger.graph_mult_ms"] = callsPerReq * perCallMult
	v["ledger.unexplained_ms"] = engineMS - v["ledger.core_dense_ms"] - v["ledger.graph_mult_ms"]

	// Set-up layers: medians over the run's set-ups.
	var build, save, load []float64
	for _, s := range l.setups {
		build = append(build, s.build.Seconds())
		save = append(save, s.save.Seconds())
		load = append(load, ms(s.load))
	}
	sharded := l.st.eng
	if w.shards > 1 {
		v["shard.build_s"] = median(build)
	} else {
		start := time.Now()
		if sharded, err = tpa.NewSharded(l.g, shardCount, tpa.Defaults()); err != nil {
			return err
		}
		v["shard.build_s"] = time.Since(start).Seconds()
		defer sharded.Close()
		probed = append(probed, "shard.*")
	}
	if v["shard.slowdown_x"], err = shardSlowdown(sharded, l.ref, l.probeBatches(), b.workers); err != nil {
		return err
	}
	if w.mapped {
		mapped, _ := l.st.eng.StorageBytes()
		v["snapshot.save_s"] = median(save)
		v["snapshot.load_ms"] = median(load)
		v["snapshot.mapped_mb"] = float64(mapped) / (1 << 20)
	} else {
		if err := probeSnapshot(l.ref, l.st.dir, v); err != nil {
			return err
		}
		probed = append(probed, "snapshot.*")
	}

	// Ingest: the polled counters over the whole run, write latencies
	// from the untraced half.
	if w.kind == kindMixed {
		if err := ingestMetrics(v, u.samples(), l.d.events, l.polls, l.ref); err != nil {
			return err
		}
	} else {
		if err := l.probeIngest(v); err != nil {
			return err
		}
		probed = append(probed, "server.edges_handler_p50_ms", "ingest.*", "engine.apply_*")
	}
	if len(probed) > 0 {
		note("off the workload's path, measured by a direct probe on the run's graph: %s", strings.Join(probed, ", "))
	}

	// Tracing overhead: traced minus untraced end-to-end figures.
	up50, up99, ucap, _, _ := b.endToEnd(l.untraced)
	tp50, tp99, tcap, _, _ := b.endToEnd(l.traced)
	v["tail.p99_ms"] = up99
	v["overhead.p50_ms"] = tp50 - up50
	v["overhead.p99_ms"] = tp99 - up99
	v["overhead.capacity_pct"] = 100 * ratio(ucap-tcap, ucap)

	for _, pl := range perLayer {
		m[pl.name] = metric{v[pl.name], pl.unit}
	}
	table := l.table(v, int(requests), engineCalls, hits, lookups, rp, notes)
	b.logf("%s", table)
	return l.write(table)
}

// table renders the latency accounting with its base counts.
func (l *ledgerInput) table(v map[string]float64, requests, engineCalls int, hits, lookups int64, rp *coreReplay, notes []string) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "latency ledger: %s seed %d (traced half, %d requests)\n", l.b.w.name, l.b.seed, requests)
	row := func(name string, val float64, base string) {
		fmt.Fprintf(tw, "  %s\t%.4f ms\t%.1f%%\t%s\n", name, val, 100*ratio(val, v["ledger.client_mean_ms"]), base)
	}
	row("client mean", v["ledger.client_mean_ms"], fmt.Sprintf("%d requests", requests))
	row("  net + loopback", v["ledger.net_ms"], "client − handler span")
	engineBase := fmt.Sprintf("%d engine calls / %d requests", engineCalls, requests)
	if l.b.w.kind == kindMixed {
		engineBase = "estimated: cache misses × direct Engine.TopK"
	}
	row("  server self", v["ledger.server_self_ms"], fmt.Sprintf("cache hits %d of %d lookups", hits, lookups))
	row("  tpa engine", v["ledger.engine_ms"], engineBase)
	row("    core dense", v["ledger.core_dense_ms"], fmt.Sprintf("replay: %d queries", rp.queries))
	row("    graph MulT", v["ledger.graph_mult_ms"], fmt.Sprintf("replay: %d MulT calls / %d queries", rp.multCalls, rp.queries))
	row("    unexplained", v["ledger.unexplained_ms"], fmt.Sprintf("engine − (core dense + graph MulT), at %.3f engine calls per request", v["ledger.engine_calls_per_request"]))
	fmt.Fprintf(tw, "tracing overhead (traced − untraced half): p50 %+.4f ms, p99 %+.4f ms, capacity %+.1f%%\n",
		v["overhead.p50_ms"], v["overhead.p99_ms"], -v["overhead.capacity_pct"])
	for _, n := range notes {
		fmt.Fprintf(tw, "note: %s\n", n)
	}
	fmt.Fprintln(tw, "per-layer metrics:")
	for _, pl := range perLayer {
		fmt.Fprintf(tw, "  %s\t%.6g %s\n", pl.name, v[pl.name], pl.unit)
	}
	tw.Flush()
	return sb.String()
}

// write stores the spans (JSON lines) and the ledger table.
func (l *ledgerInput) write(table string) error {
	dir := filepath.Join(l.b.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", l.b.w.name, l.b.seed))
	if err := writeSpans(stem+".spans.jsonl", l.spans); err != nil {
		return err
	}
	return os.WriteFile(stem+".ledger.txt", []byte(table), 0o644)
}

// replaySeeds are the traced half's read seeds, at most 200.
func (l *ledgerInput) replaySeeds() []int {
	var seeds []int
	for _, s := range l.traced.samples() {
		if s.op == opTopK && len(seeds) < 200 {
			seeds = append(seeds, l.d.seedAt(s.idx))
		}
	}
	if len(seeds) == 0 { // kindBatch: the first seeds of its batches
		for _, b := range l.replayBatches() {
			seeds = append(seeds, b...)
		}
		if len(seeds) > 200 {
			seeds = seeds[:200]
		}
	}
	return seeds
}

// replayBatches are the traced half's batches, at most 3.
func (l *ledgerInput) replayBatches() [][]int {
	var out [][]int
	for _, s := range l.traced.samples() {
		if s.op != opBatch || len(out) == 3 {
			continue
		}
		seeds := make([]int, batchSize)
		for i := range seeds {
			seeds[i] = l.d.seedAt(s.idx + i)
		}
		out = append(out, seeds)
	}
	return out
}

// probeBatches are the traced half's batches or, on a workload that sends
// none, 3 batches cut from its replay seeds.
func (l *ledgerInput) probeBatches() [][]int {
	if out := l.replayBatches(); len(out) > 0 {
		return out
	}
	seeds := l.replaySeeds()
	var out [][]int
	for len(out) < 3 && len(seeds) >= batchSize {
		out, seeds = append(out, seeds[:batchSize]), seeds[batchSize:]
	}
	return out
}

// probeSeeds are the first probeCalls replay seeds.
func (l *ledgerInput) probeSeeds() []int {
	seeds := l.replaySeeds()
	return seeds[:min(len(seeds), probeCalls)]
}

func pollsBetween(polls []statSample, from, to int64) []statSample {
	var out []statSample
	for _, p := range polls {
		if p.t >= from && p.t <= to {
			out = append(out, p)
		}
	}
	return out
}

// cacheDelta sums the cache counters' growth over consecutive samples; a
// counter that went down was reset by an engine swap and restarted at 0.
func cacheDelta(polls []statSample) (hits, lookups int64) {
	for i := 1; i < len(polls); i++ {
		p, c := polls[i-1], polls[i]
		if c.hits+c.misses >= p.hits+p.misses {
			hits += c.hits - p.hits
			lookups += c.hits + c.misses - p.hits - p.misses
		} else {
			hits += c.hits
			lookups += c.hits + c.misses
		}
	}
	return hits, lookups
}

// timedWalk is the graph kernel with every MulT timed and counted.
type timedWalk struct {
	*graph.Walk
	calls atomic.Int64
	nanos atomic.Int64
}

func (t *timedWalk) MulT(x, y sparse.Vector) sparse.Vector {
	start := time.Now()
	r := t.Walk.MulT(x, y)
	t.nanos.Add(int64(time.Since(start)))
	t.calls.Add(1)
	return r
}

// coreReplay is what replaying seeds through internal/core measured.
type coreReplay struct {
	preprocess time.Duration
	queries    int
	queryTime  time.Duration // serial TPA.TopK
	multCalls  int64
	multTime   time.Duration
	batches    int
	batchTime  time.Duration // TPA.TopKBatch
}

// replayCore preprocesses g with core.PreprocessParallel over a timed
// walk, then answers every seed with TPA.TopK (serially, so the MulT count
// per query is exact) and every batch with TPA.TopKBatch.
func replayCore(g *tpa.Graph, seeds []int, batches [][]int, workers int) (*coreReplay, error) {
	o := tpa.Defaults()
	tw := &timedWalk{Walk: graph.NewWalk(g, graph.DanglingSelfLoop)}
	rp := &coreReplay{}
	start := time.Now()
	tp, err := core.PreprocessParallel(tw, rwr.Config{C: o.C, Eps: o.Eps}, core.Params{S: o.S, T: o.T}, o.Workers)
	if err != nil {
		return nil, err
	}
	rp.preprocess = time.Since(start)
	tw.calls.Store(0)
	tw.nanos.Store(0)
	for _, s := range seeds {
		start := time.Now()
		if _, err := tp.TopK(s, topK); err != nil {
			return nil, err
		}
		rp.queryTime += time.Since(start)
		rp.queries++
	}
	rp.multCalls, rp.multTime = tw.calls.Load(), time.Duration(tw.nanos.Load())
	for _, b := range batches {
		start := time.Now()
		if _, err := tp.TopKBatch(b, topK, workers); err != nil {
			return nil, err
		}
		rp.batchTime += time.Since(start)
		rp.batches++
	}
	return rp, nil
}

// shardSlowdown times Engine.TopKBatch on the sharded engine against the
// unsharded reference over the same batches.
func shardSlowdown(sharded, plain *tpa.Engine, batches [][]int, workers int) (float64, error) {
	timeIt := func(e *tpa.Engine) (time.Duration, error) {
		start := time.Now()
		for _, b := range batches {
			if _, err := e.TopKBatch(b, topK, workers); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	ts, err := timeIt(sharded)
	if err != nil {
		return 0, err
	}
	tp, err := timeIt(plain)
	if err != nil {
		return 0, err
	}
	return ratio(ts.Seconds(), tp.Seconds()), nil
}

// applySizes reads the edge count of single applies off consecutive stats
// polls (where exactly one apply happened in between).
func applySizes(polls []statSample) []int {
	var sizes []int
	for i := 1; i < len(polls); i++ {
		if polls[i].applies-polls[i-1].applies == 1 {
			sizes = append(sizes, int(polls[i].appliedEdges-polls[i-1].appliedEdges))
		}
	}
	return sizes
}

// replayApplies replays up to six observed apply sizes through
// Engine.ApplyEdges, starting from the base engine and grouping the
// acknowledged writes in sequence order. It returns the median apply time
// and the mean edges per call.
func replayApplies(base *tpa.Engine, events []writeEvent, acked []sample, sizes []int) (float64, float64, error) {
	var times []float64
	edges, calls := 0, 0
	eng, next := base, 0
	for _, size := range sizes {
		if calls == 6 || next >= len(acked) {
			break
		}
		var adds, removes [][2]int
		for next < len(acked) && len(adds)+len(removes) < size {
			ev := events[acked[next].idx%len(events)]
			adds, removes = append(adds, ev.adds...), append(removes, ev.removes...)
			next++
		}
		start := time.Now()
		ne, _, err := eng.ApplyEdges(adds, removes)
		if err != nil {
			return 0, 0, err
		}
		times = append(times, ms(time.Since(start)))
		edges += len(adds) + len(removes)
		calls++
		eng = ne
	}
	return median(times), ratio(float64(edges), float64(calls)), nil
}
