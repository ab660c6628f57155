package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// fakeTopK answers GET /topk with a well-formed answer over nodes
// 0..topK-1, sleeping stall on the request numbered stallAt (0-based).
func fakeTopK(stallAt int64, stall time.Duration) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
		seed, _ := strconv.Atoi(r.URL.Query().Get("seed"))
		res := make([]entryJSON, topK)
		for i := range res {
			res[i] = entryJSON{Node: i, Score: 1 / float64(i+1)}
		}
		json.NewEncoder(w).Encode(map[string]interface{}{"seed": seed, "results": res})
	})
}

func testDriver(base string, workers int) *driver {
	in := &inputs{seeds: make([]int32, 1024)}
	for i := range in.seeds {
		in.seeds[i] = int32(i % 100)
	}
	return newDriver(base, workers, 100, in, time.Now())
}

// A handler that stalls once is charged, from the due time, to every
// request queued behind it; timed from send they would look fast.
func TestStallChargedFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	srv := httptest.NewServer(fakeTopK(10, stall))
	defer srv.Close()
	d := testDriver(srv.URL, 1)
	defer d.close()
	samples := d.openLoop(time.Second, opTopK, 100, 0) // one request per 10ms
	if len(samples) != 100 {
		t.Fatalf("%d samples, want 100", len(samples))
	}
	for i, s := range samples {
		if !s.ok {
			t.Fatalf("request %d failed: %s", i, s.err)
		}
	}
	if lat := samples[10].latency(); lat < stall {
		t.Errorf("stalled request latency %v, want ≥ %v", lat, stall)
	}
	// The next request was due 10ms into the stall: it waits ~190ms to be
	// sent, and both its lateness and its latency show it.
	next := samples[11]
	if next.lateness() < stall-30*time.Millisecond || next.latency() < next.lateness() {
		t.Errorf("request behind the stall: lateness %v, latency %v", next.lateness(), next.latency())
	}
	if fromSend := time.Duration(next.recv - next.send); fromSend > 50*time.Millisecond {
		t.Errorf("request behind the stall took %v from send; the stall belongs to its wait", fromSend)
	}
	queued := 0
	for _, s := range samples[11:] {
		if s.lateness() > 20*time.Millisecond {
			queued++
		}
	}
	if queued < 10 {
		t.Errorf("%d requests late by >20ms behind a 200ms stall at 100 q/s, want ≥ 10", queued)
	}
	late := summarize(samples, opTopK)
	if p99 := quantile(late.lateMS, 0.99); p99 < 150 {
		t.Errorf("lateness p99 %.1f ms, want ≥ 150", p99)
	}
	if got := maxOutstanding(samples); got < 15 {
		t.Errorf("max outstanding %d, want ≥ 15 (a 200ms backlog at 100 q/s)", got)
	}
}

func TestClosedLoopCapacity(t *testing.T) {
	srv := httptest.NewServer(fakeTopK(-1, 0))
	defer srv.Close()
	d := testDriver(srv.URL, 2)
	defer d.close()
	samples := d.closedLoop(300*time.Millisecond, opTopK, 2, 0)
	st := summarize(samples, opTopK)
	if st.failed != 0 || st.attempted == 0 {
		t.Fatalf("closed loop: %d attempted, %d failed (%s)", st.attempted, st.failed, st.firstErr)
	}
	if q := capacityQPS(samples, opTopK, 0); q <= 0 {
		t.Errorf("capacity %v, want > 0", q)
	}
}

func TestWindowP99(t *testing.T) {
	// 3000 answers in due order; a stall in the first third makes its
	// p99 100ms while the other two windows read 1ms.
	var samples []sample
	for i := 0; i < 3000; i++ {
		lat := int64(time.Millisecond)
		if i < 50 {
			lat = int64(100 * time.Millisecond)
		}
		samples = append(samples, sample{op: opTopK, ok: true, seeds: 1, due: int64(i), recv: int64(i) + lat})
	}
	p99, windows := windowP99(samples, opTopK, 1000)
	if windows != 3 || p99 != 1 {
		t.Errorf("windowP99 = %v over %d windows, want 1 over 3", p99, windows)
	}
}
