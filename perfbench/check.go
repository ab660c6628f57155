package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"tpa"
	"tpa/internal/graph"
	"tpa/internal/sparse"
)

// Tolerances. Served read answers must match an independently built heap
// engine to float-summation order; after live ingestion they must match a
// fresh build within the L1 drift the repository's mutation tests allow.
const (
	readRelTol   = 1e-9
	ingestAbsTol = 1e-5
	// refExtra reference entries beyond k let a served node that ties the
	// k-th score still be found.
	refExtra = 10
)

// topkMatches checks a served top-k against a reference top-(k+refExtra):
// position by position the scores agree within tolerance, and every served
// node carries (within tolerance) the score the reference gives it. Nodes
// may therefore swap only among tied scores.
func topkMatches(got, ref []sparse.Entry, relTol, absTol float64) error {
	tol := func(x float64) float64 { return math.Max(relTol*math.Abs(x), absTol) }
	if len(got) > len(ref) {
		return fmt.Errorf("%d results, reference has %d", len(got), len(ref))
	}
	refScore := make(map[int]float64, len(ref))
	for _, e := range ref {
		refScore[e.Index] = e.Score
	}
	for i, e := range got {
		if d := math.Abs(e.Score - ref[i].Score); d > tol(ref[i].Score) {
			return fmt.Errorf("rank %d: score %.17g, reference %.17g", i, e.Score, ref[i].Score)
		}
		rs, ok := refScore[e.Index]
		if !ok {
			return fmt.Errorf("rank %d: node %d is not in the reference top-%d", i, e.Index, len(ref))
		}
		if d := math.Abs(e.Score - rs); d > tol(rs) {
			return fmt.Errorf("rank %d: node %d scored %.17g, reference %.17g", i, e.Index, e.Score, rs)
		}
	}
	return nil
}

// refTopK memoizes reference top-(k+refExtra) answers by seed.
type refTopK struct {
	eng  *tpa.Engine
	memo map[int][]sparse.Entry
}

func newRefTopK(eng *tpa.Engine) *refTopK {
	return &refTopK{eng: eng, memo: make(map[int][]sparse.Entry)}
}

func (r *refTopK) get(seed int) ([]sparse.Entry, error) {
	if top, ok := r.memo[seed]; ok {
		return top, nil
	}
	top, err := r.eng.TopK(seed, topK+refExtra)
	if err != nil {
		return nil, err
	}
	r.memo[seed] = top
	return top, nil
}

// checkSamples compares every kept answer with the reference and marks a
// mismatching request failed. Batches are checked on every
// batchCheckEvery-th seed. It returns the number of requests it failed.
func checkSamples(samples []sample, d *driver, ref *refTopK, log func(string, ...interface{})) (int, error) {
	const batchCheckEvery = 16
	failed := 0
	for i := range samples {
		s := &samples[i]
		if !s.ok || s.tops == nil {
			continue
		}
		for j, got := range s.tops {
			if s.op == opBatch && j%batchCheckEvery != 0 {
				continue
			}
			seed := d.seedAt(s.idx + j)
			want, err := ref.get(seed)
			if err != nil {
				return failed, err
			}
			if err := topkMatches(got, want, readRelTol, 0); err != nil {
				s.ok = false
				s.err = fmt.Sprintf("wrong answer for seed %d: %v", seed, err)
				log("perfbench: %s", s.err)
				failed++
				break
			}
		}
	}
	return failed, nil
}

// checkExact verifies the Theorem-2 contract on the served engine: the L1
// distance of Engine.Query from tpa.Exact stays within ErrorBound.
func checkExact(eng *tpa.Engine, g *tpa.Graph, seed int) error {
	exact, err := tpa.Exact(g, seed, tpa.Defaults())
	if err != nil {
		return err
	}
	got, err := eng.Query(seed)
	if err != nil {
		return err
	}
	l1 := 0.0
	for i := range got {
		l1 += math.Abs(got[i] - exact[i])
	}
	if l1 > eng.ErrorBound() {
		return fmt.Errorf("seed %d: L1 error %.3g exceeds the bound %.3g", seed, l1, eng.ErrorBound())
	}
	return nil
}

// statSample is one poll of GET /graphs/default/stats.
type statSample struct {
	t                        int64 // driver clock, reply received
	edges                    int64
	hits, misses             int64
	depth                    int
	applies, appliedEdges    int64
	applyErrors, compactions int64
}

func pollStats(hc *http.Client, base string, d *driver) (statSample, error) {
	resp, err := hc.Get(base + "/graphs/default/stats")
	if err != nil {
		return statSample{}, err
	}
	defer resp.Body.Close()
	var body struct {
		Graph struct {
			Edges int64 `json:"edges"`
		} `json:"graph"`
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		Ingest struct {
			Depth        int   `json:"queue_depth"`
			Applies      int64 `json:"applied_batches"`
			AppliedEdges int64 `json:"applied_edges"`
			ApplyErrors  int64 `json:"apply_errors"`
			Compactions  int64 `json:"compactions"`
		} `json:"ingest"`
	}
	if resp.StatusCode != http.StatusOK {
		return statSample{}, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return statSample{}, err
	}
	in := body.Ingest
	return statSample{t: d.now(), edges: body.Graph.Edges, hits: body.Cache.Hits, misses: body.Cache.Misses,
		depth: in.Depth, applies: in.Applies, appliedEdges: in.AppliedEdges,
		applyErrors: in.ApplyErrors, compactions: in.Compactions}, nil
}

// poller samples the stats endpoint on its own connection every interval
// until stopped.
type poller struct {
	stop    chan struct{}
	done    chan struct{}
	samples []statSample
	err     error
}

func startPoller(base string, d *driver, every time.Duration) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	hc := &http.Client{Timeout: 30 * time.Second}
	go func() {
		defer close(p.done)
		defer hc.CloseIdleConnections()
		for {
			s, err := pollStats(hc, base, d)
			if err != nil {
				p.err = err
				return
			}
			p.samples = append(p.samples, s)
			select {
			case <-p.stop:
				return
			case <-time.After(every):
			}
		}
	}()
	return p
}

func (p *poller) finish() ([]statSample, error) {
	close(p.stop)
	<-p.done
	return p.samples, p.err
}

// visibleMS gives, per acknowledged write, the time from its ack to the
// first stats poll whose applied-edge counter covers it and every write
// sequenced before it. Writes never seen applied are counted in unseen.
func visibleMS(writes []sample, events []writeEvent, polls []statSample) (vis []float64, unseen int) {
	var cum int64
	for _, s := range ackedBySeq(writes) {
		cum += int64(events[s.idx%len(events)].edges())
		// The counter only grows, so both conditions hold on a suffix.
		applied := sort.Search(len(polls), func(i int) bool { return polls[i].appliedEdges >= cum })
		after := sort.Search(len(polls), func(i int) bool { return polls[i].t >= s.recv })
		p := max(applied, after)
		if p == len(polls) {
			unseen++
			continue
		}
		vis = append(vis, ms(time.Duration(polls[p].t-s.recv)))
	}
	return vis, unseen
}

// ackedBySeq returns the acknowledged writes in WAL sequence order, the
// order the ingest pipeline applies them in.
func ackedBySeq(writes []sample) []sample {
	acked := make([]sample, 0, len(writes))
	for _, s := range writes {
		if s.op == opEdges && s.ok {
			acked = append(acked, s)
		}
	}
	sort.Slice(acked, func(i, j int) bool { return acked[i].seq < acked[j].seq })
	return acked
}

// finalGraph applies the acknowledged writes, in WAL sequence order and
// with set semantics, to the base graph.
func finalGraph(g *tpa.Graph, writes []sample, events []writeEvent) *tpa.Graph {
	state := make(map[[2]int]bool)
	for _, s := range ackedBySeq(writes) {
		ev := events[s.idx%len(events)]
		for _, e := range ev.adds {
			state[e] = true
		}
		for _, e := range ev.removes {
			state[e] = false
		}
	}
	n := g.NumNodes()
	b := graph.NewBuilderN(n)
	for u := 0; u < n; u++ {
		for _, v := range g.OutNeighbors(u) {
			if present, changed := state[[2]int{u, int(v)}]; !changed || present {
				b.AddEdge(u, int(v))
			}
		}
	}
	for e, present := range state {
		if present && !g.HasEdge(e[0], e[1]) {
			b.AddEdge(e[0], e[1])
		}
	}
	return b.Build()
}
