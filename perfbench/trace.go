package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tpa/internal/server"
	"tpa/internal/sparse"
)

// Span names, one per layer boundary the benchmark can see from its own
// files. A request's spans nest driver.request ⊃ client.http ⊃
// server.<route> ⊃ engine.<call>.
const (
	spanRequest = "driver.request" // due time → reply: includes generator queueing
	spanClient  = "client.http"    // send → reply, as the client sees it
	spanEngineK = "engine.TopK"
	spanEngineB = "engine.TopKBatch"
	spanEdges   = "server.edges" // the write route's handler span
)

// Headers carrying the driver's request and span ids to the middleware.
const (
	reqHeader  = "X-Bench-Req"
	spanHeader = "X-Bench-Span"
)

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch (one monotonic clock: client and server share the
// process). Spans of one request share Req; Parent is the enclosing
// span's ID (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while on; they are written out at the end
// of the run. While off, every wrapper is a single atomic load and a
// direct call.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	// open maps the first seed of each in-flight query request to its
	// handler span: engine calls carry no request context, so the
	// decorator finds its parent by the seed it was asked for.
	open map[int][]*openReq
}

type openReq struct {
	span, req int64
	claimed   bool
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[int][]*openReq)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }
func (t *tracer) id() int64  { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) register(seed int, o *openReq) {
	t.mu.Lock()
	t.open[seed] = append(t.open[seed], o)
	t.mu.Unlock()
}

func (t *tracer) unregister(seed int, o *openReq) {
	t.mu.Lock()
	defer t.mu.Unlock()
	list := t.open[seed]
	for i, x := range list {
		if x == o {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(t.open, seed)
	} else {
		t.open[seed] = list
	}
}

// claim returns the handler span an engine call for seed belongs to: the
// oldest in-flight request on that seed not yet claimed. (0, 0) when none
// matches; such a span is an orphan and lands in the ledger's remainder.
func (t *tracer) claim(seed int) (parent, req int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, o := range t.open[seed] {
		if !o.claimed {
			o.claimed = true
			return o.span, o.req
		}
	}
	return 0, 0
}

// middleware wraps the server's handler: one span per request named after
// its route, parented to the client span whose ids arrive in headers.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		s := span{ID: t.id(), Parent: parent, Req: req, Name: routeSpan(r.URL.Path), Start: start}
		seed, ok := firstSeed(r)
		var o *openReq
		if ok {
			o = &openReq{span: s.ID, req: req}
			t.register(seed, o)
		}
		next.ServeHTTP(w, r)
		if o != nil {
			t.unregister(seed, o)
		}
		s.End = t.now()
		t.add(s)
	})
}

// routeSpan names a handler span after the last path element:
// /topk → server.topk, /graphs/default/edges → server.edges.
func routeSpan(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return "server." + path[i+1:]
		}
	}
	return "server." + path
}

// firstSeed extracts the seed an engine call for this request will be
// keyed by: the seed parameter of GET /topk, the first seed of a POST
// /batch body (the body is restored for the handler).
func firstSeed(r *http.Request) (int, bool) {
	if v := r.URL.Query().Get("seed"); v != "" {
		s, err := strconv.Atoi(v)
		return s, err == nil
	}
	if r.Method != http.MethodPost || routeSpan(r.URL.Path) != "server.batch" {
		return 0, false
	}
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return 0, false
	}
	var req struct {
		Seeds []int `json:"seeds"`
	}
	if json.Unmarshal(body, &req) != nil || len(req.Seeds) == 0 {
		return 0, false
	}
	return req.Seeds[0], true
}

// tracedEngine decorates a read engine with engine.* spans. Only the calls
// the serving path makes are timed; the rest pass straight through.
type tracedEngine struct {
	server.Engine
	t *tracer
}

func (e *tracedEngine) TopK(seed, k int) ([]sparse.Entry, error) {
	if !e.t.on.Load() {
		return e.Engine.TopK(seed, k)
	}
	parent, req := e.t.claim(seed)
	s := span{ID: e.t.id(), Parent: parent, Req: req, Name: spanEngineK, Start: e.t.now()}
	top, err := e.Engine.TopK(seed, k)
	s.End = e.t.now()
	e.t.add(s)
	return top, err
}

func (e *tracedEngine) TopKBatch(seeds []int, k, parallelism int) ([][]sparse.Entry, error) {
	if !e.t.on.Load() || len(seeds) == 0 {
		return e.Engine.TopKBatch(seeds, k, parallelism)
	}
	parent, req := e.t.claim(seeds[0])
	s := span{ID: e.t.id(), Parent: parent, Req: req, Name: spanEngineB, Start: e.t.now()}
	tops, err := e.Engine.TopKBatch(seeds, k, parallelism)
	s.End = e.t.now()
	e.t.add(s)
	return tops, err
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children counted
// once, parts outside the parent ignored).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, curLo, curHi int64
		open := false
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			switch {
			case !open:
				curLo, curHi, open = lo, hi, true
			case lo <= curHi:
				curHi = max(curHi, hi)
			default:
				covered += curHi - curLo
				curLo, curHi = lo, hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
