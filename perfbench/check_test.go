package main

import (
	"net/http/httptest"
	"testing"
	"time"

	"tpa"
	"tpa/internal/server"
	"tpa/internal/sparse"
)

// wrongTopK serves the engine's answers, except that for even seeds the
// last result is replaced by a node outside the true top-k (with a
// plausible score, so only the reference check can tell).
type wrongTopK struct{ server.Engine }

func (w wrongTopK) TopK(seed, k int) ([]sparse.Entry, error) {
	top, err := w.Engine.TopK(seed, k+refExtra+1)
	if err != nil || seed%2 == 1 {
		return top[:min(k, len(top))], err
	}
	top[k-1].Index = top[len(top)-1].Index
	return top[:k], nil
}

func TestWrongAnswerIsAFailedOp(t *testing.T) {
	g := tpa.RandomCommunityGraph(2000, 20000, 5, 1)
	eng, err := tpa.New(g, tpa.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		served     server.Engine
		wantFailed bool
	}{
		{"correct", eng, false},
		{"wrong", wrongTopK{eng}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := server.NewWith(tc.served, server.Info{Nodes: g.NumNodes(), Edges: g.NumEdges()}, server.DefaultOptions())
			srv := httptest.NewServer(h)
			defer srv.Close()
			in := &inputs{seeds: make([]int32, 64)}
			for i := range in.seeds {
				in.seeds[i] = int32(i * 7)
			}
			d := newDriver(srv.URL, 1, g.NumNodes(), in, time.Now())
			defer d.close()
			d.sampleEvery = 1
			samples := d.openLoop(320*time.Millisecond, opTopK, 100, 0) // 32 requests
			failed, err := checkSamples(samples, d, newRefTopK(eng), t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			st := summarize(samples, opTopK)
			if st.failed != failed {
				t.Errorf("summarize counts %d failed, checkSamples failed %d", st.failed, failed)
			}
			if !tc.wantFailed && failed != 0 {
				t.Errorf("%d correct answers counted as failed: %s", failed, st.firstErr)
			}
			if tc.wantFailed && failed != 16 {
				t.Errorf("%d of 32 requests failed, want the 16 even seeds", failed)
			}
		})
	}
}

func TestTopKMatchesAllowsTies(t *testing.T) {
	ref := []sparse.Entry{{Index: 1, Score: 0.5}, {Index: 2, Score: 0.25}, {Index: 3, Score: 0.25}, {Index: 4, Score: 0.1}}
	tied := []sparse.Entry{{Index: 1, Score: 0.5}, {Index: 3, Score: 0.25}}
	if err := topkMatches(tied, ref, readRelTol, 0); err != nil {
		t.Errorf("a node tied at the cut-off was rejected: %v", err)
	}
	wrong := []sparse.Entry{{Index: 1, Score: 0.5}, {Index: 4, Score: 0.25}}
	if err := topkMatches(wrong, ref, readRelTol, 0); err == nil {
		t.Error("a node served with another node's score was accepted")
	}
	off := []sparse.Entry{{Index: 1, Score: 0.5 + 1e-6}}
	if err := topkMatches(off, ref, readRelTol, 0); err == nil {
		t.Error("a score off by 2e-6 relative was accepted at 1e-9")
	}
	if err := topkMatches(off, ref, 0, ingestAbsTol); err != nil {
		t.Errorf("a score within the ingest tolerance was rejected: %v", err)
	}
}
