package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tpa"
)

// Off-path probes. A traced run reports every per-layer metric on every
// workload. A layer the workload's traffic does not cross is measured
// directly on the run's graph after the traced half, so that each figure
// is a measurement of its layer rather than a structural zero; the ledger
// notes which figures came from a probe.
const (
	probeCalls     = 100 // Engine.TopK calls timed by a probe
	probeWrites    = 6   // writes sent by the ingest probe
	probeWriteRate = 2   // writes/s: one apply each at the ingest defaults
)

// timeTopK times Engine.TopK on each seed, in milliseconds.
func timeTopK(eng *tpa.Engine, seeds []int) ([]float64, error) {
	out := make([]float64, 0, len(seeds))
	for _, s := range seeds {
		start := time.Now()
		if _, err := eng.TopK(s, topK); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}

// timeTopKBatch times Engine.TopKBatch on each batch, in milliseconds.
func timeTopKBatch(eng *tpa.Engine, batches [][]int, workers int) ([]float64, error) {
	out := make([]float64, 0, len(batches))
	for _, b := range batches {
		start := time.Now()
		if _, err := eng.TopKBatch(b, topK, workers); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}

// probeSnapshot saves eng as a TPAM snapshot under dir and maps it back.
func probeSnapshot(eng *tpa.Engine, dir string, v map[string]float64) error {
	path := filepath.Join(dir, "probe.tpam")
	defer os.Remove(path)
	start := time.Now()
	if err := eng.SaveSnapshotMmap(path); err != nil {
		return err
	}
	v["snapshot.save_s"] = time.Since(start).Seconds()
	start = time.Now()
	mapped, err := tpa.LoadSnapshotMmap(path)
	if err != nil {
		return err
	}
	v["snapshot.load_ms"] = ms(time.Since(start))
	bytes, _ := mapped.StorageBytes()
	v["snapshot.mapped_mb"] = float64(bytes) / (1 << 20)
	return mapped.Close()
}

// probeIngest stands up the mixed-ingest stack (heap engine, durable
// ingest with `tpad serve`'s defaults) on the run's graph and sends
// probeWrites writes from the mixed-ingest write stream, with the tracer
// on so the edges handler is timed. Every write counts as an operation.
func (l *ledgerInput) probeIngest(v map[string]float64) error {
	b, tr := l.b, l.d.tr
	mw, err := findWorkload("mixed-ingest")
	if err != nil {
		return err
	}
	st, err := buildStack(mw, l.g, filepath.Join(l.st.dir, "probe-ingest"), tr, l.d.seedAt(0))
	if err != nil {
		return fmt.Errorf("ingest probe: %w", err)
	}
	defer st.close()
	in := &inputs{seeds: l.d.seeds, events: genEvents(l.g, mw, writeSeed(b.seed), probeWrites)}
	d := newDriver(st.base, b.workers, l.g.NumNodes(), in, l.d.epoch)
	defer d.close()
	before := len(tr.snapshot())
	poll := startPoller(st.base, d, 5*time.Millisecond)
	tr.on.Store(true)
	writes := d.openLoop(time.Duration(probeWrites)*time.Second/probeWriteRate, opTopK, 0, probeWriteRate)
	tr.on.Store(false)
	polls, err := poll.finish()
	if err != nil {
		return fmt.Errorf("ingest probe: polling stats: %w", err)
	}
	polls = b.drain(d, st.base, writes, polls)
	for _, s := range writes {
		b.attempted++
		if !s.ok {
			b.fail("ingest probe: %s", s.err)
		}
	}
	var edges []float64
	for _, s := range tr.snapshot()[before:] {
		if s.Name == spanEdges {
			edges = append(edges, ms(s.dur()))
		}
	}
	v["server.edges_handler_p50_ms"] = median(edges)
	return ingestMetrics(v, writes, d.events, polls, l.ref)
}

// ingestMetrics fills the internal/ingest metrics and the engine's apply
// figures from a run's writes and its stats polls, replaying the observed
// apply sizes through Engine.ApplyEdges on base.
func ingestMetrics(v map[string]float64, writes []sample, events []writeEvent, polls []statSample, base *tpa.Engine) error {
	last := polls[len(polls)-1]
	for _, p := range polls {
		v["ingest.queue_depth_max"] = max(v["ingest.queue_depth_max"], float64(p.depth))
	}
	v["ingest.applies"] = float64(last.applies)
	v["ingest.edges_per_apply"] = ratio(float64(last.appliedEdges), float64(last.applies))
	v["ingest.apply_errors"] = float64(last.applyErrors)
	v["ingest.compactions"] = float64(last.compactions)
	var ack []float64
	for _, s := range writes {
		if s.op == opEdges && s.ok {
			ack = append(ack, ms(s.latency()))
		}
	}
	vis, _ := visibleMS(writes, events, polls)
	v["ingest.write_ack_p50_ms"] = median(ack)
	v["ingest.visible_p50_ms"] = median(vis)
	applyMS, edgesPerCall, err := replayApplies(base, events, ackedBySeq(writes), applySizes(polls))
	if err != nil {
		return err
	}
	v["engine.apply_p50_ms"] = applyMS
	v["engine.apply_edges_per_call"] = edgesPerCall
	return nil
}
