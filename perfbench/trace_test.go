package main

import (
	"testing"
	"time"
)

// A hand-built span tree, times in ns:
//
//	request 1   [0, 100)
//	  client 2  [10, 100)
//	    handler 3  [20, 90)
//	      engine 4 [30, 50)
//	      engine 5 [40, 70)   overlaps 4: covered once
//	      engine 6 [80, 95)   runs past its parent: clipped at 90
//	orphan 7    [200, 210)
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: spanRequest, Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: spanClient, Start: 10, End: 100},
		{ID: 3, Parent: 2, Req: 1, Name: "server.topk", Start: 20, End: 90},
		{ID: 4, Parent: 3, Req: 1, Name: spanEngineK, Start: 30, End: 50},
		{ID: 5, Parent: 3, Req: 1, Name: spanEngineK, Start: 40, End: 70},
		{ID: 6, Parent: 3, Req: 1, Name: spanEngineK, Start: 80, End: 95},
		{ID: 7, Name: spanEngineK, Start: 200, End: 210},
	}
	want := map[int64]time.Duration{
		1: 10,                      // lateness: 100 - client's 90
		2: 20,                      // net: 90 - handler's 70
		3: 70 - (70 - 30) - 10,     // handler minus [30,70) and [80,90)
		4: 20, 5: 30, 6: 15, 7: 10, // leaves keep their whole duration
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	// The layers add up to the root: lateness + net + server self +
	// engine time inside the handler.
	engineInside := time.Duration(70 - 30 + 10)
	if sum := got[1] + got[2] + got[3] + engineInside; sum != spans[0].dur() {
		t.Errorf("layers sum to %d, request took %d", sum, spans[0].dur())
	}
}

func TestCacheDeltaAcrossResets(t *testing.T) {
	polls := []statSample{
		{hits: 10, misses: 5},
		{hits: 14, misses: 6}, // +4 hits, +5 lookups
		{hits: 1, misses: 2},  // engine swap: a fresh partition with 3 lookups
		{hits: 3, misses: 2},  // +2 hits, +2 lookups
	}
	hits, lookups := cacheDelta(polls)
	if hits != 4+1+2 || lookups != 5+3+2 {
		t.Errorf("cacheDelta = %d hits / %d lookups, want 7 / 10", hits, lookups)
	}
}

func TestVisibleMS(t *testing.T) {
	ms := int64(time.Millisecond)
	events := []writeEvent{
		{adds: make([][2]int, 2)},
		{adds: make([][2]int, 3)},
		{adds: make([][2]int, 1)},
	}
	// Acked out of send order: event 1 got seq 1, event 0 seq 2.
	writes := []sample{
		{op: opEdges, idx: 0, ok: true, seq: 2, recv: 2 * ms},
		{op: opEdges, idx: 1, ok: true, seq: 1, recv: 1 * ms},
		{op: opEdges, idx: 2, ok: true, seq: 3, recv: 3 * ms},
	}
	polls := []statSample{
		{t: 4 * ms, appliedEdges: 3}, // seq 1 applied
		{t: 9 * ms, appliedEdges: 5}, // seq 2 applied
	}
	vis, unseen := visibleMS(writes, events, polls)
	if unseen != 1 {
		t.Errorf("unseen = %d, want 1 (seq 3 never applied)", unseen)
	}
	if len(vis) != 2 || vis[0] != 3 || vis[1] != 7 {
		t.Errorf("visible = %v ms, want [3 7]", vis)
	}
}
