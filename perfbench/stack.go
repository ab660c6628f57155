package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tpa"
	"tpa/internal/ingest"
	"tpa/internal/server"
	"tpa/internal/sparse"
)

// stack is the serving stack of one run, wired as `tpad serve` wires it:
// an engine behind server.NewWith on an http.Server over a loopback TCP
// listener.
type stack struct {
	eng  *tpa.Engine
	h    *server.Handler
	srv  *http.Server
	done chan struct{} // closed when srv.Serve returns
	base string
	dir  string // this stack's snapshot and WAL files
	setupRecord
}

// setupRecord is what one set-up leaves behind once its stack is closed.
type setupRecord struct {
	total, build, save, load time.Duration
	// first is the answer that ended set-up, checked after the run.
	firstSeed int
	first     []sparse.Entry
}

// ingestConfig mirrors `tpad serve -wal`'s defaults: fsync=batch, a
// 1024-event blocking queue, 4096-edge / 25ms batches, compaction only
// past 128 MiB of WAL.
func ingestConfig(dir string) server.IngestConfig {
	return server.IngestConfig{
		Dir: filepath.Join(dir, "wal", "default"),
		WAL: ingest.WALOptions{Fsync: ingest.FsyncBatch},
		Queue: ingest.Options{
			QueueSize:       1024,
			MaxBatchEdges:   4096,
			MaxBatchAge:     25 * time.Millisecond,
			Mode:            ingest.ModeBlock,
			CompactWALBytes: 128 << 20,
		},
		SnapshotPath: filepath.Join(dir, "wal", "default.tpas"),
	}
}

// buildStack runs set-up once: from the graph in memory to the first
// answer on the socket. With tr non-nil the handler and (read workloads)
// the engine are wrapped for tracing; the wrappers record nothing until
// tr is switched on.
func buildStack(w workload, g *tpa.Graph, dir string, tr *tracer, firstSeed int) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &stack{dir: dir, setupRecord: setupRecord{firstSeed: firstSeed}}
	t0 := time.Now()
	var eng *tpa.Engine
	var err error
	if w.shards > 1 {
		eng, err = tpa.NewSharded(g, w.shards, tpa.Defaults())
	} else {
		eng, err = tpa.New(g, tpa.Defaults())
	}
	if err != nil {
		return nil, err
	}
	st.build = time.Since(t0)
	if w.mapped {
		path := filepath.Join(dir, "graph.tpam")
		t := time.Now()
		if err := eng.SaveSnapshotMmap(path); err != nil {
			return nil, err
		}
		st.save = time.Since(t)
		t = time.Now()
		if eng, err = tpa.LoadSnapshotMmap(path); err != nil {
			return nil, err
		}
		st.load = time.Since(t)
	}
	st.eng = eng
	var served server.Engine = eng
	if tr != nil && w.kind != kindMixed {
		served = &tracedEngine{Engine: eng, t: tr}
	}
	st.h = server.NewWith(served, server.Info{Nodes: eng.NumNodes(), Edges: eng.NumEdges()}, server.DefaultOptions())
	if w.kind == kindMixed {
		if err := st.h.EnableIngest("default", ingestConfig(dir)); err != nil {
			st.close()
			return nil, err
		}
	}
	var handler http.Handler = st.h
	if tr != nil {
		handler = tr.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.srv = &http.Server{Handler: handler}
	st.done = make(chan struct{})
	go func() {
		defer close(st.done)
		st.srv.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	st.base = "http://" + ln.Addr().String()
	if st.first, err = getTopK(st.base, firstSeed, eng.NumNodes()); err != nil {
		st.close()
		return nil, fmt.Errorf("first answer: %w", err)
	}
	st.total = time.Since(t0)
	return st, nil
}

// getTopK sends GET /topk on a connection of its own, retrying while the
// listener comes up, and returns the parsed answer.
func getTopK(base string, seed, nodes int) ([]sparse.Entry, error) {
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	url := fmt.Sprintf("%s/topk?seed=%d&k=%d", base, seed, topK)
	for tries := 0; ; tries++ {
		resp, err := hc.Get(url)
		if err != nil {
			if tries < 100 {
				time.Sleep(time.Millisecond)
				continue
			}
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		tops, err := parseAnswers(opTopK, body, []int{seed}, topK, nodes)
		if err != nil {
			return nil, err
		}
		return tops[0], nil
	}
}

// close stops the listener, drains ingest, unmaps the snapshot and
// removes the stack's files.
func (st *stack) close() error {
	var errs []error
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, st.srv.Shutdown(ctx))
		cancel()
		<-st.done
	}
	if st.h != nil {
		errs = append(errs, st.h.Close())
	}
	if st.eng != nil {
		errs = append(errs, st.eng.Close())
	}
	errs = append(errs, os.RemoveAll(st.dir))
	return errors.Join(errs...)
}

// memMiB is the Go heap in use after a forced GC plus the engine's mapped
// bytes, in MiB.
func memMiB(eng *tpa.Engine) float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	mapped, _ := eng.StorageBytes()
	return float64(int64(m.HeapInuse)+mapped) / (1 << 20)
}
