// Command perfbench is the repository's serving benchmark. It generates
// seeded inputs, stands up the real serving stack — tpa.New or
// tpa.NewSharded, a TPAM snapshot saved and memory-mapped back, and
// internal/server mounted on an http.Server over a loopback listener, as
// `tpad serve` mounts it — drives one named workload against it and checks
// the answers.
//
//	perfbench --workload topk-uniform --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run is split into an untraced
// and a traced half and the metrics are the per-layer ledger. A
// human-readable report goes to standard error; the traced run also writes
// its spans and ledger table under --out. The exit code is non-zero when
// any operation failed or any answer was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"tpa"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: topk-uniform, topk-zipf, batch-sharded or mixed-ingest")
	seed := fs.Int64("seed", 1, "seed of the generated graph, read seeds and write stream")
	seconds := fs.Int("seconds", 24, "measured seconds (a traced run splits them into an untraced and a traced half)")
	trace := fs.Int("trace", 0, "1 reports the per-layer ledger from a traced run instead of the end-to-end metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans, ledgers and temporary files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && *seconds < 3 {
		err = fmt.Errorf("--seconds %d: need at least 3", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b := &bench{w: w, seed: *seed, measure: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, out: *out, workers: runtime.GOMAXPROCS(0),
		logf: func(format string, a ...interface{}) { fmt.Fprintf(stderr, format+"\n", a...) }}
	rep, err := b.run()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

type bench struct {
	w       workload
	seed    int64
	measure time.Duration
	traced  bool
	out     string
	workers int
	logf    func(string, ...interface{})

	attempted, failed int
}

// fail records a failed check.
func (b *bench) fail(format string, a ...interface{}) {
	b.failed++
	b.logf("perfbench: FAILED: "+format, a...)
}

// phaseResult is one measured stretch of a workload: its closed-loop
// capacity phase and (except kindBatch) its open-loop phase.
type phaseResult struct {
	capacity, open []sample
	from, to       int64   // driver clock
	stealPct       float64 // host CPU stolen by the hypervisor meanwhile
	allocBytes     uint64
	gcCycles       uint32
	gcPause        time.Duration
}

func (p *phaseResult) samples() []sample {
	return append(append([]sample(nil), p.capacity...), p.open...)
}

// mainOp is the workload's measured request kind.
func (b *bench) mainOp() opKind {
	if b.w.kind == kindBatch {
		return opBatch
	}
	return opTopK
}

// phases runs the measured phases for dur: 40% closed loop with one
// client per core, 60% open loop at the workload's fixed rate (kindBatch:
// all of it closed loop with a single client).
func (b *bench) phases(d *driver, dur time.Duration) *phaseResult {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	steal0, total0 := cpuTicks()
	p := &phaseResult{from: d.now()}
	switch b.w.kind {
	case kindBatch:
		p.capacity = d.closedLoop(dur, opBatch, 1, 0)
	default:
		capDur := dur * 2 / 5
		p.capacity = d.closedLoop(capDur, opTopK, b.workers, b.w.writeRate)
		p.open = d.openLoop(dur-capDur, opTopK, b.w.rate, b.w.writeRate)
	}
	p.to = d.now()
	steal1, total1 := cpuTicks()
	p.stealPct = 100 * ratio(float64(steal1-steal0), float64(total1-total0))
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return p
}

// endToEnd derives the end-to-end metrics from one phaseResult. Latencies
// are per answered seed from the due time: per request on the open-loop
// workloads, per batch (each of its seeds waits for the whole batch) on
// kindBatch. p99 is the median of the p99s of consecutive windows of at
// least 1000 answers, so one stall of the host moves one window rather
// than the figure; capacity is likewise the median of one-second windows
// (one window, the whole phase, on kindBatch; one write period on
// kindMixed, so that every window holds one apply).
func (b *bench) endToEnd(p *phaseResult) (p50, p99, capacity float64, n, windows int) {
	lat := p.open
	capWindow := time.Second
	switch b.w.kind {
	case kindBatch:
		lat, capWindow = p.capacity, 0
	case kindMixed:
		capWindow = time.Duration(float64(time.Second) / b.w.writeRate)
	}
	perSeed := summarize(lat, b.mainOp()).perSeedMS
	p99, windows = windowP99(lat, b.mainOp(), 1000)
	return median(perSeed), p99, capacityQPS(p.capacity, b.mainOp(), capWindow), len(perSeed), windows
}

// warm sends untimed requests back to back before measurement: 8000 Zipf
// reads bring the LRU to its steady hit ratio (about 0.64 for Zipf 1.0
// over 100k nodes and 4096 entries); otherwise 500 reads (one batch) open
// the connections and touch the mapped snapshot.
func (b *bench) warm(d *driver) []sample {
	switch {
	case b.w.kind == kindBatch:
		return d.burst(1, opBatch)
	case b.w.zipf > 0:
		return d.burst(8000, opTopK)
	default:
		return d.burst(500, opTopK)
	}
}

func (b *bench) run() (*report, error) {
	tmp := filepath.Join(b.out, fmt.Sprintf("tmp-%d", os.Getpid()))
	defer os.RemoveAll(tmp)
	events := b.w.writeLag + int(b.w.writeRate*(b.measure.Seconds()+5))
	in, err := genInputs(b.w, b.seed, events)
	if err != nil {
		return nil, err
	}
	g := in.graph
	nodes := g.NumNodes()
	b.logf("perfbench: %s seed %d: %d nodes, %d edges; %s", b.w.name, b.seed, nodes, g.NumEdges(), hostInfo())

	var tr *tracer
	epoch := time.Now()
	if b.traced {
		tr = newTracer()
		epoch = tr.epoch
	}
	st, setups, err := b.setUp(g, tmp, tr, int(in.seeds[0]))
	if err != nil {
		return nil, err
	}
	defer st.close()
	if b.w.kind != kindMixed {
		// The mapped engine no longer needs the input graph; it is
		// regenerated from the seed for the answer checks.
		in.graph, g = nil, nil
	}
	mem := memMiB(st.eng)

	d := newDriver(st.base, b.workers, nodes, in, epoch)
	d.tr = tr
	defer d.close()
	all := b.warm(d)
	var poll *poller
	if b.w.kind == kindMixed {
		poll = startPoller(st.base, d, 5*time.Millisecond)
	}
	half := b.measure
	if b.traced {
		half = b.measure / 2
	}
	var statsBefore, statsAfter statSample
	untraced := b.phases(d, half)
	var traced *phaseResult
	if b.traced {
		if statsBefore, err = pollStats(d.hc, st.base, d); err != nil {
			return nil, err
		}
		tr.on.Store(true)
		traced = b.phases(d, half)
		tr.on.Store(false)
		if statsAfter, err = pollStats(d.hc, st.base, d); err != nil {
			return nil, err
		}
		all = append(all, traced.samples()...)
	}
	all = append(all, untraced.samples()...)
	var polls []statSample
	if poll != nil {
		if polls, err = poll.finish(); err != nil {
			return nil, fmt.Errorf("polling stats: %w", err)
		}
		polls = b.drain(d, st.base, all, polls)
	}

	// Answer checks, after the clock stops.
	if g == nil {
		g = genGraph(b.seed)
	}
	ref, err := tpa.New(g, tpa.Defaults())
	if err != nil {
		return nil, err
	}
	if err := b.check(d, st, setups, g, ref, all); err != nil {
		return nil, err
	}
	for _, s := range all {
		b.attempted++
		if !s.ok {
			b.failed++
		}
	}
	if first := firstError(all); first != "" {
		b.logf("perfbench: first failed request: %s", first)
	}

	rep := &report{Metrics: make(map[string]metric)}
	setupS := make([]float64, len(setups))
	for i, s := range setups {
		setupS[i] = s.total.Seconds()
	}
	p50, p99, capacity, n, windows := b.endToEnd(untraced)
	b.logf("perfbench: setup_s %v (median of %d)", setupS, len(setupS))
	b.logf("perfbench: p50_ms %.4f over %d seed answers; p99_ms %.4f (median of %d windows); capacity_qps %.1f; mem_mb %.2f; host steal %.1f%%",
		p50, n, p99, windows, capacity, mem, untraced.stealPct)
	if b.traced {
		l := &ledgerInput{b: b, d: d, st: st, setups: setups, g: g, ref: ref,
			untraced: untraced, traced: traced, spans: tr.snapshot(), polls: polls,
			statsBefore: statsBefore, statsAfter: statsAfter}
		if err := l.build(rep.Metrics); err != nil {
			return nil, err
		}
	} else {
		rep.Metrics["setup_s"] = metric{median(setupS), "s"}
		rep.Metrics["p50_ms"] = metric{p50, "ms"}
		rep.Metrics["capacity_qps"] = metric{capacity, "1/s"}
		rep.Metrics["mem_mb"] = metric{mem, "MiB"}
	}
	// The ledger's ingest probe adds operations of its own.
	rep.Attempted, rep.Failed, rep.Correct = b.attempted, b.failed, b.failed == 0
	return rep, nil
}

// setUp builds the stack several times (the median is setup_s) and keeps
// the last one serving.
func (b *bench) setUp(g *tpa.Graph, tmp string, tr *tracer, firstSeed int) (*stack, []setupRecord, error) {
	reps := 5
	if b.traced {
		reps = 3
	}
	var setups []setupRecord
	for r := 0; ; r++ {
		st, err := buildStack(b.w, g, filepath.Join(tmp, fmt.Sprintf("stack%d", r)), tr, firstSeed)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		b.attempted++ // each set-up ends in a served answer
		setups = append(setups, st.setupRecord)
		if r == reps-1 {
			return st, setups, nil
		}
		if err := st.close(); err != nil {
			return nil, nil, err
		}
	}
}

// check verifies the served answers against ref, an independently built
// heap engine over the same graph, and tpa.Exact; on kindMixed it checks
// the graph after ingestion instead of the reads made during it.
func (b *bench) check(d *driver, st *stack, setups []setupRecord, g *tpa.Graph, ref *tpa.Engine, all []sample) error {
	refs := newRefTopK(ref)
	for _, s := range setups {
		want, err := refs.get(s.firstSeed)
		if err != nil {
			return err
		}
		if err := topkMatches(s.first, want, readRelTol, 0); err != nil {
			b.fail("set-up's first answer (seed %d): %v", s.firstSeed, err)
		}
	}
	for i := 1; i <= 3; i++ {
		b.attempted++
		if err := checkExact(st.eng, g, d.seedAt(i)); err != nil {
			b.fail("exact check: %v", err)
		}
	}
	if b.w.kind == kindMixed {
		return b.finalCheck(d, st.base, g, all)
	}
	_, err := checkSamples(all, d, refs, b.logf)
	return err
}

func firstError(samples []sample) string {
	for _, s := range samples {
		if !s.ok {
			return s.err
		}
	}
	return ""
}

// drain waits (up to a minute) until every acknowledged write is applied,
// polling the stats endpoint; an acknowledged write still unapplied then
// is a failed operation.
func (b *bench) drain(d *driver, base string, all []sample, polls []statSample) []statSample {
	var order []int // acknowledged writes in sequence order
	for i, s := range all {
		if s.op == opEdges && s.ok {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(x, y int) bool { return all[order[x]].seq < all[order[y]].seq })
	var want int64
	for _, i := range order {
		want += int64(d.events[all[i].idx%len(d.events)].edges())
	}
	deadline := time.Now().Add(time.Minute)
	var applied int64
	for {
		s, err := pollStats(d.hc, base, d)
		if err == nil {
			polls = append(polls, s)
			applied = s.appliedEdges
			if applied >= want && s.depth == 0 {
				return polls
			}
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	var cum int64
	for _, i := range order {
		cum += int64(d.events[all[i].idx%len(d.events)].edges())
		if cum > applied {
			all[i].ok, all[i].err = false, "write acknowledged but never applied"
		}
	}
	return polls
}

// finalCheck verifies the graph after live ingestion: the served edge
// count equals the base graph with every acknowledged write applied in
// sequence order, and sampled top-k answers match a fresh engine built
// over that final edge set.
func (b *bench) finalCheck(d *driver, base string, g *tpa.Graph, all []sample) error {
	final := finalGraph(g, all, d.events)
	b.attempted++
	stats, err := pollStats(d.hc, base, d)
	if err != nil {
		return err
	}
	if stats.edges != final.NumEdges() {
		b.fail("served graph has %d edges, want %d (base %d + acknowledged writes)", stats.edges, final.NumEdges(), g.NumEdges())
	}
	fresh, err := tpa.New(final, tpa.Defaults())
	if err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		seed := d.seedAt(i * 97)
		b.attempted++
		got, err := getTopK(base, seed, g.NumNodes())
		if err != nil {
			b.fail("final read of seed %d: %v", seed, err)
			continue
		}
		want, err := fresh.TopK(seed, topK+refExtra)
		if err != nil {
			return err
		}
		if err := topkMatches(got, want, 0, ingestAbsTol); err != nil {
			b.fail("after ingestion, seed %d: %v", seed, err)
		}
	}
	return nil
}

// hostInfo describes the machine a run measured.
func hostInfo() string {
	model := "unknown CPU"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
}
