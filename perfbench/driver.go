package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tpa/internal/sparse"
)

type opKind uint8

const (
	opTopK  opKind = iota // GET /topk
	opBatch               // POST /batch
	opEdges               // POST /graphs/default/edges
)

// seedsPer is the number of read seeds one request of op consumes.
func seedsPer(op opKind) int {
	if op == opBatch {
		return batchSize
	}
	return 1
}

// sample is one request's outcome. Times are nanoseconds since the
// driver's epoch: due is when the schedule wanted the request sent (the
// send time itself in a closed loop), so recv-due charges a stall to every
// request queued behind it.
type sample struct {
	op              opKind
	idx             int // first read index, or write event index
	seeds           int // seeds answered
	due, send, recv int64
	ok              bool
	err             string
	seq             uint64           // write ack sequence number
	tops            [][]sparse.Entry // decoded answers of sampled reads
}

func (s sample) latency() time.Duration  { return time.Duration(s.recv - s.due) }
func (s sample) lateness() time.Duration { return time.Duration(s.send - s.due) }

// driver is the benchmark's load generator: one process, at most workers
// connections, requests timed from their due time. It reuses loadgen's
// Zipf sampler (for the seed sequence) but not loadgen.Runner, which times
// from send and allows 4096 requests in flight.
type driver struct {
	base    string
	hc      *http.Client
	workers int
	nodes   int
	seeds   []int32
	events  []writeEvent
	epoch   time.Time
	tr      *tracer // nil in untraced runs
	// sampleEvery keeps the decoded answers of every sampleEvery-th read
	// for the reference check.
	sampleEvery int

	nextRead  atomic.Int64 // next read index, shared by all phases
	nextEvent atomic.Int64 // next write event
}

// newDriver builds a driver whose clock starts at epoch (a tracer's, when
// the run is traced, so spans and samples share one clock).
func newDriver(base string, workers, nodes int, in *inputs, epoch time.Time) *driver {
	tr := &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}
	return &driver{
		base: base, workers: workers, nodes: nodes,
		hc:    &http.Client{Transport: tr, Timeout: 60 * time.Second},
		seeds: in.seeds, events: in.events, epoch: epoch,
		sampleEvery: 16,
	}
}

func (d *driver) close() { d.hc.CloseIdleConnections() }

func (d *driver) now() int64 { return int64(time.Since(d.epoch)) }

func (d *driver) seedAt(i int) int { return int(d.seeds[i%len(d.seeds)]) }

// job is one scheduled request.
type job struct {
	op  opKind
	idx int
	due int64
}

// openLoop sends reads at readRate and write events at writeRate on a
// fixed schedule for dur, regardless of how fast the server answers: a
// worker that finds a job already due sends it at once, and its lateness
// counts in its latency.
func (d *driver) openLoop(dur time.Duration, op opKind, readRate, writeRate float64) []sample {
	start := d.now() + int64(time.Millisecond)
	var jobs []job
	if readRate > 0 {
		n := int(dur.Seconds() * readRate)
		first := int(d.nextRead.Add(int64(n))) - n
		for i := 0; i < n; i++ {
			jobs = append(jobs, job{op: op, idx: first + i, due: start + int64(float64(i)/readRate*1e9)})
		}
	}
	if writeRate > 0 {
		n := int(dur.Seconds() * writeRate)
		first := int(d.nextEvent.Add(int64(n))) - n
		for i := 0; i < n; i++ {
			jobs = append(jobs, job{op: opEdges, idx: first + i, due: start + int64((float64(i)+0.5)/writeRate*1e9)})
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].due < jobs[j].due })
	return d.runJobs(jobs)
}

// burst sends n requests back to back over every connection — a closed
// loop bounded by count rather than time — and returns once all are
// answered.
func (d *driver) burst(n int, op opKind) []sample {
	per := seedsPer(op)
	first := int(d.nextRead.Add(int64(n*per))) - n*per
	jobs := make([]job, n)
	now := d.now()
	for i := range jobs {
		jobs[i] = job{op: op, idx: first + i*per, due: now}
	}
	return d.runJobs(jobs)
}

// runJobs sends jobs, in order, from one worker per connection: each
// worker takes the next job, waits for its due time and sends it.
func (d *driver) runJobs(jobs []job) []sample {
	out := make([]sample, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < d.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(jobs) {
					return
				}
				sleepUntil(d.epoch.Add(time.Duration(jobs[j].due)))
				out[j] = d.do(jobs[j])
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs clients that each send their next read as soon as the
// previous one is answered, for dur. Write events (writeRate > 0) keep
// their open-loop schedule: whichever client is free when one falls due
// sends it first.
func (d *driver) closedLoop(dur time.Duration, op opKind, clients int, writeRate float64) []sample {
	start := d.now()
	deadline := start + int64(dur)
	firstEvent := int(d.nextEvent.Load())
	var wNext atomic.Int64
	writeDue := func(j int) int64 { return start + int64((float64(j)+0.5)/writeRate*1e9) }
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for {
				now := d.now()
				if now >= deadline {
					break
				}
				if writeRate > 0 {
					if j := wNext.Load(); writeDue(int(j)) <= now && wNext.CompareAndSwap(j, j+1) {
						local = append(local, d.do(job{op: opEdges, idx: firstEvent + int(j), due: writeDue(int(j))}))
						continue
					}
				}
				per := int64(seedsPer(op))
				i := int(d.nextRead.Add(per) - per)
				local = append(local, d.do(job{op: op, idx: i, due: now}))
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	d.nextEvent.Add(wNext.Load())
	return out
}

// do sends one request and validates the reply's shape; the numbers of
// sampled answers are checked against a reference after the run.
func (d *driver) do(j job) sample {
	s := sample{op: j.op, idx: j.idx, due: j.due}
	var method, url string
	var body []byte
	var seeds []int
	switch j.op {
	case opTopK:
		seeds = []int{d.seedAt(j.idx)}
		method, url = http.MethodGet, fmt.Sprintf("%s/topk?seed=%d&k=%d", d.base, seeds[0], topK)
	case opBatch:
		seeds = make([]int, batchSize)
		for i := range seeds {
			seeds[i] = d.seedAt(j.idx + i)
		}
		body, _ = json.Marshal(map[string]interface{}{"seeds": seeds, "k": topK})
		method, url = http.MethodPost, d.base+"/batch"
	case opEdges:
		ev := d.events[j.idx%len(d.events)]
		body, _ = json.Marshal(map[string]interface{}{"add": ev.adds, "remove": ev.removes})
		method, url = http.MethodPost, d.base+"/graphs/default/edges"
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		s.err = err.Error()
		return s
	}
	tracing := d.tr != nil && d.tr.on.Load()
	var reqID, clientSpan int64
	if tracing {
		reqID, clientSpan = d.tr.id(), d.tr.id()
		req.Header.Set(reqHeader, strconv.FormatInt(reqID, 10))
		req.Header.Set(spanHeader, strconv.FormatInt(clientSpan, 10))
	}
	s.send = d.now()
	resp, err := d.hc.Do(req)
	var respBody []byte
	if err == nil {
		respBody, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.recv = d.now()
	if tracing {
		d.tr.add(span{ID: reqID, Req: reqID, Name: spanRequest, Start: s.due, End: s.recv})
		d.tr.add(span{ID: clientSpan, Parent: reqID, Req: reqID, Name: spanClient, Start: s.send, End: s.recv})
	}
	if err != nil {
		s.err = err.Error()
		return s
	}
	switch j.op {
	case opTopK, opBatch:
		if resp.StatusCode != http.StatusOK {
			s.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(respBody))
			return s
		}
		tops, err := parseAnswers(j.op, respBody, seeds, topK, d.nodes)
		if err != nil {
			s.err = err.Error()
			return s
		}
		if j.op == opBatch || j.idx%d.sampleEvery == 0 {
			s.tops = tops
		}
		s.seeds = len(seeds)
	case opEdges:
		var ack struct {
			Accepted bool   `json:"accepted"`
			Seq      uint64 `json:"seq"`
		}
		if resp.StatusCode != http.StatusAccepted || json.Unmarshal(respBody, &ack) != nil || !ack.Accepted || ack.Seq == 0 {
			s.err = fmt.Sprintf("write not acknowledged: status %d: %s", resp.StatusCode, bytes.TrimSpace(respBody))
			return s
		}
		s.seq = ack.Seq
	}
	s.ok = true
	return s
}

type entryJSON struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// parseAnswers decodes a /topk or /batch reply and checks its shape: one
// answer per requested seed, in order, each k distinct in-range nodes with
// finite non-negative scores in non-increasing order.
func parseAnswers(op opKind, body []byte, seeds []int, k, nodes int) ([][]sparse.Entry, error) {
	type answer struct {
		Seed    int         `json:"seed"`
		Results []entryJSON `json:"results"`
	}
	var answers []answer
	if op == opTopK {
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, fmt.Errorf("decoding /topk reply: %w", err)
		}
		answers = []answer{a}
	} else {
		var b struct {
			Results []answer `json:"results"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, fmt.Errorf("decoding /batch reply: %w", err)
		}
		answers = b.Results
	}
	if len(answers) != len(seeds) {
		return nil, fmt.Errorf("%d answers for %d seeds", len(answers), len(seeds))
	}
	want := min(k, nodes)
	tops := make([][]sparse.Entry, len(answers))
	for i, a := range answers {
		if a.Seed != seeds[i] {
			return nil, fmt.Errorf("answer %d is for seed %d, asked %d", i, a.Seed, seeds[i])
		}
		if len(a.Results) != want {
			return nil, fmt.Errorf("seed %d: %d results, want %d", a.Seed, len(a.Results), want)
		}
		seen := make(map[int]bool, len(a.Results))
		top := make([]sparse.Entry, len(a.Results))
		for j, e := range a.Results {
			bad := e.Node < 0 || e.Node >= nodes || seen[e.Node] ||
				math.IsNaN(e.Score) || math.IsInf(e.Score, 0) || e.Score < 0 ||
				(j > 0 && e.Score > a.Results[j-1].Score)
			if bad {
				return nil, fmt.Errorf("seed %d: malformed result %d: %+v", a.Seed, j, e)
			}
			seen[e.Node] = true
			top[j] = sparse.Entry{Index: e.Node, Score: e.Score}
		}
		tops[i] = top
	}
	return tops, nil
}

// phaseStats summarizes one phase's samples of the main request kind.
type phaseStats struct {
	attempted, failed int
	perSeedMS         []float64 // latency from due, once per seed answered
	lateMS            []float64 // send − due, per answered request
	firstErr          string
}

func summarize(samples []sample, op opKind) phaseStats {
	var ps phaseStats
	for _, s := range samples {
		if s.op != op {
			continue
		}
		ps.attempted++
		if !s.ok {
			ps.failed++
			if ps.firstErr == "" {
				ps.firstErr = s.err
			}
			continue
		}
		for i := 0; i < s.seeds; i++ {
			ps.perSeedMS = append(ps.perSeedMS, ms(s.latency()))
		}
		ps.lateMS = append(ps.lateMS, ms(s.lateness()))
	}
	return ps
}

// maxOutstanding is the largest number of requests that were due but not
// yet answered at any moment: the generator's backlog plus those in
// flight.
func maxOutstanding(samples []sample) int {
	type ev struct {
		t int64
		d int
	}
	evs := make([]ev, 0, 2*len(samples))
	for _, s := range samples {
		if s.recv == 0 {
			continue
		}
		evs = append(evs, ev{s.due, 1}, ev{s.recv, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].d < evs[j].d
	})
	cur, best := 0, 0
	for _, e := range evs {
		cur += e.d
		best = max(best, cur)
	}
	return best
}

// answered returns the successful samples of op in due order.
func answered(samples []sample, op opKind) []sample {
	var out []sample
	for _, s := range samples {
		if s.op == op && s.ok {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// windowP99 splits the answered requests, in due order, into consecutive
// windows of at least minSeeds seed answers each and returns the median of
// the windows' p99 latencies (per seed answer, from the due time) and the
// number of windows. Fewer than minSeeds answers make one window.
func windowP99(samples []sample, op opKind, minSeeds int) (float64, int) {
	ok := answered(samples, op)
	total := 0
	for _, s := range ok {
		total += s.seeds
	}
	windows := max(total/minSeeds, 1)
	var p99s, cur []float64
	for _, s := range ok {
		for i := 0; i < s.seeds; i++ {
			cur = append(cur, ms(s.latency()))
		}
		if len(cur) >= total/windows && len(p99s) < windows-1 {
			p99s = append(p99s, quantile(cur, 0.99))
			cur = cur[:0]
		}
	}
	if len(cur) > 0 {
		p99s = append(p99s, quantile(cur, 0.99))
	}
	return median(p99s), len(p99s)
}

// capacityQPS is the median, over windows of the phase, of the seeds
// answered per second. The answers, in reply order, are split into
// windows of about window's worth each; window 0 takes the whole phase,
// from the first send to the last reply, as one window.
func capacityQPS(samples []sample, op opKind, window time.Duration) float64 {
	ok := answered(samples, op)
	if len(ok) == 0 {
		return 0
	}
	start := ok[0].due
	sort.Slice(ok, func(i, j int) bool { return ok[i].recv < ok[j].recv })
	end := ok[len(ok)-1].recv
	windows := 1
	if window > 0 {
		windows = max(int((end-start)/int64(window)), 1)
	}
	var rates []float64
	from, seeds := start, 0
	for i, s := range ok {
		seeds += s.seeds
		if (i+1)*windows/len(ok) > len(rates) || i == len(ok)-1 {
			rates = append(rates, float64(seeds)/time.Duration(s.recv-from).Seconds())
			from, seeds = s.recv, 0
		}
	}
	return median(rates)
}
