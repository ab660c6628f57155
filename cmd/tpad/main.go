// Command tpad builds TPA snapshots and serves queries over HTTP:
//
//	tpad build -graph edges.tsv [-o edges.tpas] [-s 5 -t 10 -c 0.15] [-workers 8]
//	           [-order degree|bfs|hubspoke] [-precision 32]
//	tpad serve -graphs snapshots/ [-addr :8080] [-cache 4096] [-max-inflight 256]
//	tpad serve -graph edges.tsv [-index prebuilt.idx] [...]
//	tpad mutate -graph name [-add u,v]... [-remove u,v]... [-file f | -watch f]
//	tpad loadgen -url http://host:8080 [-qps 100 -duration 30s -zipf-s 1.0]
//	tpad arena [-gen sbm:10000] [-methods tpa,exact,fora,...] [-json out.json]
//	tpad -graph edges.tsv [...]                  (legacy alias for "serve")
//
// build runs preprocessing once and writes a combined graph+index snapshot
// (.tpas); serve -graphs loads every snapshot and edge list in a directory
// as a named graph, so one process answers /graphs/{name}/… for all of
// them — snapshots cold-start with two sequential reads, no edge-list
// parsing and no re-preprocessing. Graphs registered from files are
// hot-reloadable via POST /graphs/{name}/reload, which rebuilds from the
// file and atomically swaps the engine with zero dropped queries.
//
// -workers shards the preprocessing matvec and sizes the /batch worker pool;
// -cache bounds each graph's LRU top-k cache partition; -max-inflight sheds
// load with 503 beyond that many concurrent queries. SIGINT/SIGTERM drain
// in-flight requests before exiting. See docs/API.md for the endpoint
// reference and the snapshot format spec.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"tpa"
	"tpa/internal/gen"
	"tpa/internal/ingest"
	"tpa/internal/server"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "build":
		err = cmdBuild(args[1:])
	case len(args) > 0 && args[0] == "serve":
		err = cmdServe(args[1:])
	case len(args) > 0 && args[0] == "mutate":
		err = cmdMutate(args[1:])
	case len(args) > 0 && args[0] == "loadgen":
		err = cmdLoadgen(args[1:])
	case len(args) > 0 && args[0] == "arena":
		err = cmdArena(args[1:])
	case len(args) > 0 && args[0] == "graphgen":
		err = cmdGraphgen(args[1:])
	case len(args) > 0 && (args[0] == "help" || args[0] == "-h" || args[0] == "--help"):
		usage()
		return
	default:
		// Legacy single-graph invocation: tpad -graph edges.tsv ...
		err = cmdServe(args)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpad: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tpad build -graph <edges.tsv> [-o <out.tpas>] [-s 5] [-t 10] [-c 0.15] [-eps 1e-9] [-workers N]
             [-order natural|degree|bfs|hubspoke] [-precision 64|32]
             [-shards N] [-mmap]
  tpad graphgen -out <edges.tsv[.gz]> [-nodes N] [-communities K] [-avgdeg D] [-pin P]
             [-seed S] [-uniform] [-stream]
  tpad serve -graphs <dir>      [-addr :8080] [serving flags]
  tpad serve -graph <edges.tsv> [-index <in.idx>] [-addr :8080] [serving flags]
  tpad mutate -graph <name>     [-server URL] [-add u,v]... [-remove u,v]... [-file f]
  tpad mutate -graph <name>     [-server URL] -watch <file> [-interval 1s]
  tpad loadgen -url <URL>       [-qps 100] [-ramp 0s] [-duration 30s] [-zipf-s 1.0]
                                [-seeds 0] [-k 10] [-deadline-ms 0] [-json out.json]
                                [-max-error-rate R] [-max-p99-ms MS]
  tpad arena [-gen sbm:10000,rmat:5000] [-graphs edges.tsv,...] [-methods tpa,exact,...]
             [-workloads uniform,hub,tail] [-queries 10] [-k 20] [-c 0.15] [-eps 1e-9]
             [-seed 1] [-json out.json] [-quiet]

serving flags: -workers N -cache N -max-inflight N -max-batch N -default-deadline D
               -c -eps -s -t -order -precision
"tpad -graph ..." without a subcommand is the legacy alias for "tpad serve -graph ...".
build -mmap writes a memory-mappable .tpam snapshot (zero-copy cold start;
serve auto-detects it); -shards N lays nodes out in N community-aligned
shards, recorded as metadata (queries run the unsharded kernel). graphgen
writes a synthetic SBM edge list; -stream generates row-at-a-time in
constant memory for very large graphs.
mutate posts edge batches to a running server's POST /graphs/{name}/edges;
-watch follows a growing mutation file ("+ u v" / "- u v" lines) until ^C.
loadgen drives an open-loop Zipf workload against a running server and exits
non-zero when -max-error-rate or -max-p99-ms is violated (the CI SLO gate).`)
}

func tpaOpts(fs *flag.FlagSet) *tpa.Options {
	o := tpa.Defaults()
	fs.Float64Var(&o.C, "c", o.C, "restart probability")
	fs.Float64Var(&o.Eps, "eps", o.Eps, "convergence tolerance")
	fs.IntVar(&o.S, "s", o.S, "neighbor-part start iteration S")
	fs.IntVar(&o.T, "t", o.T, "stranger-part start iteration T")
	fs.StringVar(&o.Order, "order", "", "build-time node ordering: "+strings.Join(tpa.Orders(), "|")+" (node ids stay external)")
	fs.Var(precFlag{&o.Precision}, "precision", "index storage precision: 64 (default) or 32 (half the index, ~1e-4 accuracy cost)")
	return &o
}

// precFlag adapts tpa.Precision to the flag package, so "-precision 32"
// fails at parse time instead of deep inside engine construction.
type precFlag struct{ p *tpa.Precision }

func (f precFlag) String() string {
	if f.p == nil {
		return ""
	}
	return f.p.String()
}

func (f precFlag) Set(s string) error {
	p, err := tpa.ParsePrecision(s)
	if err != nil {
		return err
	}
	*f.p = p
	return nil
}

// cmdBuild runs the one-off preprocessing phase and writes the combined
// graph+index snapshot, the artifact "tpad serve" cold-starts from.
func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	graphPath := fs.String("graph", "", "edge-list file (required, .gz supported)")
	out := fs.String("o", "", "output snapshot file (default: graph path with .tpas extension, .tpam with -mmap)")
	workers := fs.Int("workers", 0, "goroutines for the preprocessing matvec (0 = all CPUs)")
	shards := fs.Int("shards", 0, "lay nodes out in N community-aligned shards, kept as layout metadata (0/1 = unsharded)")
	mmapOut := fs.Bool("mmap", false, "write a memory-mappable .tpam snapshot (zero-copy cold start) instead of .tpas")
	o := tpaOpts(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" {
		return fmt.Errorf("build: -graph is required")
	}
	o.Workers = *workers
	dest := *out
	if dest == "" {
		name, _ := stem(*graphPath)
		if *mmapOut {
			dest = name + ".tpam"
		} else {
			dest = name + ".tpas"
		}
	}
	start := time.Now()
	g, err := tpa.LoadGraph(*graphPath)
	if err != nil {
		return fmt.Errorf("build: loading graph: %w", err)
	}
	loadT := time.Since(start)
	start = time.Now()
	var eng *tpa.Engine
	if *shards > 1 {
		eng, err = tpa.NewSharded(g, *shards, *o)
	} else {
		eng, err = tpa.New(g, *o)
	}
	if err != nil {
		return fmt.Errorf("build: preprocessing: %w", err)
	}
	prepT := time.Since(start)
	if *mmapOut {
		err = eng.SaveSnapshotMmap(dest)
	} else {
		err = eng.SaveSnapshotFile(dest)
	}
	if err != nil {
		return fmt.Errorf("build: writing snapshot: %w", err)
	}
	st, err := os.Stat(dest)
	if err != nil {
		return err
	}
	s, t := eng.Params()
	extras := ""
	if eng.Order() != "" && eng.Order() != "natural" {
		extras += " order=" + eng.Order()
	}
	if eng.Precision() == tpa.Float32 {
		extras += " precision=float32"
	}
	if n := eng.NumShards(); n > 1 {
		extras += fmt.Sprintf(" shards=%d", n)
	}
	fmt.Printf("built %s: %d nodes / %d edges (S=%d T=%d%s), %d bytes\n",
		dest, g.NumNodes(), g.NumEdges(), s, t, extras, st.Size())
	fmt.Printf("  parse %v, preprocess %v — serve cold-starts skip both\n",
		loadT.Round(time.Millisecond), prepT.Round(time.Millisecond))
	return nil
}

// cmdGraphgen writes a synthetic stochastic-block-model edge list — the
// benchmark-input generator. With -stream the rows are generated and
// written one source node at a time in constant memory, so inputs with
// hundreds of millions of edges need no more RAM than the row buffer;
// without it the graph is built in memory first (identical edges either
// way — the streaming generator replays the builder's sampling sequence).
func cmdGraphgen(args []string) error {
	fs := flag.NewFlagSet("graphgen", flag.ExitOnError)
	out := fs.String("out", "", "output edge-list file (required; .gz compresses)")
	nodes := fs.Int("nodes", 100_000, "node count")
	communities := fs.Int("communities", 16, "community count")
	avgdeg := fs.Float64("avgdeg", 8, "expected out-degree per node")
	pin := fs.Float64("pin", 0.9, "probability an edge stays inside its community")
	seed := fs.Int64("seed", 1, "generator seed (same seed = same graph)")
	uniform := fs.Bool("uniform", false, "uniform in-community targets (no Zipf in-degree skew)")
	streamGen := fs.Bool("stream", false, "generate row-at-a-time in constant memory (for very large graphs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("graphgen: -out is required")
	}
	cfg := gen.SBMConfig{Nodes: *nodes, Communities: *communities,
		AvgOutDeg: *avgdeg, PIn: *pin, Seed: *seed, Uniform: *uniform}
	start := time.Now()
	if *streamGen {
		if err := gen.StreamSBMEdgeListFile(*out, cfg); err != nil {
			return fmt.Errorf("graphgen: %w", err)
		}
	} else {
		g := gen.SBM(cfg)
		if err := tpa.SaveGraph(*out, g); err != nil {
			return fmt.Errorf("graphgen: %w", err)
		}
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("generated %s: %d nodes, ~%.0f edges/node, %d bytes in %v\n",
		*out, *nodes, *avgdeg, st.Size(), time.Since(start).Round(time.Millisecond))
	return nil
}

// stem strips an optional ".gz" and then the extension: "edges.tsv.gz" →
// "edges". It is the one rule mapping file names to graph names, shared by
// the `build` output default and the `serve -graphs` registry, so the two
// always agree on which snapshot corresponds to which edge list.
func stem(path string) (name, ext string) {
	base := strings.TrimSuffix(path, ".gz")
	ext = filepath.Ext(base)
	return strings.TrimSuffix(base, ext), ext
}

// snapshotName maps an edge-list path to its default snapshot path:
// edges.tsv → edges.tpas, edges.tsv.gz → edges.tpas.
func snapshotName(graphPath string) string {
	name, _ := stem(graphPath)
	return name + ".tpas"
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	graphsDir := fs.String("graphs", "", "directory of snapshots (.tpas) and edge lists to serve as named graphs")
	graphPath := fs.String("graph", "", "single edge-list file")
	indexPath := fs.String("index", "", "optional prebuilt index (from `tpa preprocess`) for -graph")
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "goroutines for preprocessing and /batch fan-out (0 = all CPUs)")
	cacheSize := fs.Int("cache", 4096, "top-k LRU cache entries per graph (0 disables caching)")
	maxInflight := fs.Int("max-inflight", 256, "concurrent query requests before shedding 503s (0 = unlimited)")
	maxBatch := fs.Int("max-batch", 4096, "max seeds per /batch or /queryset request (0 = unlimited)")
	defaultDeadline := fs.Duration("default-deadline", 0, "per-query budget when no X-TPA-Deadline-Ms header is sent; expired queries return partial answers (0 = none)")
	walRoot := fs.String("wal", "", "directory for durable ingestion: per-graph write-ahead logs and compacted snapshots; replayed on boot")
	fsyncMode := fs.String("fsync", "batch", "WAL durability: always (fsync per batch), batch (fsync on a short timer), off")
	ingestQueue := fs.Int("ingest-queue", 1024, "bounded ingest queue capacity in edge events")
	ingestMode := fs.String("ingest-mode", "block", "backpressure when the ingest queue is full: block, drop, or reject (429)")
	batchEdges := fs.Int("ingest-batch-edges", 4096, "max edges coalesced into one apply batch")
	batchAge := fs.Duration("ingest-batch-age", 25*time.Millisecond, "max time an admitted edge event waits before its batch is applied")
	compactStaleness := fs.Float64("compact-staleness", 0, "auto-compact when the mutation overlay exceeds this fraction of the base graph (0 = off)")
	compactWALBytes := fs.Int64("compact-wal-bytes", 128<<20, "auto-compact (and truncate the WAL) when live WAL bytes exceed this (0 = off)")
	o := tpaOpts(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.Workers = *workers
	if (*graphsDir == "") == (*graphPath == "") {
		return fmt.Errorf("serve: exactly one of -graphs or -graph is required")
	}
	if *indexPath != "" && *graphsDir != "" {
		return fmt.Errorf("serve: -index only applies to a single -graph edge list, not -graphs")
	}
	if *indexPath != "" && (strings.HasSuffix(*graphPath, ".tpas") || strings.HasSuffix(*graphPath, ".tpam")) {
		return fmt.Errorf("serve: -index cannot be combined with a snapshot (it already embeds its index)")
	}
	var ing *ingestSetup
	if *walRoot != "" {
		fsync, err := ingest.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		mode, err := ingest.ParseMode(*ingestMode)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		ing = &ingestSetup{
			root: *walRoot,
			wal:  ingest.WALOptions{Fsync: fsync},
			queue: ingest.Options{
				QueueSize:        *ingestQueue,
				MaxBatchEdges:    *batchEdges,
				MaxBatchAge:      *batchAge,
				Mode:             mode,
				CompactStaleness: *compactStaleness,
				CompactWALBytes:  *compactWALBytes,
			},
		}
	}

	h := server.NewRegistry(server.Options{
		Workers:         *workers,
		CacheSize:       *cacheSize,
		MaxInFlight:     *maxInflight,
		MaxBatch:        *maxBatch,
		DefaultDeadline: *defaultDeadline,
	})
	if *graphsDir != "" {
		if err := registerDir(h, *graphsDir, *o, ing); err != nil {
			return err
		}
	} else {
		if err := h.RegisterLoader("default", ing.wrap("default", singleLoader(*graphPath, *indexPath, *o))); err != nil {
			return err
		}
		if err := h.SetDefault("default"); err != nil {
			return err
		}
	}
	names := h.GraphNames()
	if len(names) == 0 {
		return fmt.Errorf("serve: no graphs registered from %s", *graphsDir)
	}
	if err := ing.enable(h, names); err != nil {
		return err
	}
	log.Printf("tpad: serving %d graph(s) on %s: %s", len(names), *addr, strings.Join(names, ", "))

	srv := &http.Server{Addr: *addr, Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		h.Close()
		return fmt.Errorf("serving: %w", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("tpad: signal received, draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("tpad: shutdown: %v", err)
	}
	// Close after the HTTP drain: the ingest pipelines flush their queues,
	// fsync and close the WALs, so a clean exit leaves nothing to replay.
	if err := h.Close(); err != nil {
		log.Printf("tpad: closing ingest pipelines: %v", err)
	}
	log.Printf("tpad: bye")
	return nil
}

// ingestSetup carries the -wal/-fsync/-ingest-*/-compact-* serve flags. A
// nil setup (no -wal) leaves loaders and registration untouched.
type ingestSetup struct {
	root  string
	wal   ingest.WALOptions
	queue ingest.Options
}

// walDir is the per-graph WAL segment directory under the -wal root.
func (s *ingestSetup) walDir(name string) string { return filepath.Join(s.root, name) }

// snapPath is the per-graph compacted snapshot auto-compaction rewrites;
// boot prefers it over the originally registered source.
func (s *ingestSetup) snapPath(name string) string { return filepath.Join(s.root, name+".tpas") }

// wrap makes a loader durable: prefer the compacted snapshot, then replay
// the graph's WAL on top, so a restarted server resumes exactly where the
// log ends — including after kill -9 mid-ingest.
func (s *ingestSetup) wrap(name string, base server.Loader) server.Loader {
	if s == nil {
		return base
	}
	walDir, snapPath := s.walDir(name), s.snapPath(name)
	return func() (server.Engine, server.Info, error) {
		var eng *tpa.Engine
		var info server.Info
		if _, err := os.Stat(snapPath); err == nil {
			eng, err = tpa.LoadSnapshotFile(snapPath)
			if err != nil {
				return nil, server.Info{}, fmt.Errorf("loading compacted snapshot %s: %w", snapPath, err)
			}
			info = engineInfo(eng, snapPath)
			log.Printf("tpad: %s: cold-started from compacted snapshot %s", name, snapPath)
		} else {
			bEng, bInfo, err := base()
			if err != nil {
				return nil, server.Info{}, err
			}
			te, ok := bEng.(*tpa.Engine)
			if !ok {
				return nil, server.Info{}, fmt.Errorf("graph %q is served by a %T, which does not support durable ingestion", name, bEng)
			}
			eng, info = te, bInfo
		}
		replayed, stats, err := eng.ReplayWAL(walDir)
		if err != nil {
			return nil, server.Info{}, err
		}
		if stats.Records > 0 {
			log.Printf("tpad: %s: replayed %d WAL record(s) across %d segment(s) (%d edges in %d batches)",
				name, stats.Records, stats.Segments, stats.Edges, stats.Applies)
		}
		if stats.Truncated {
			log.Printf("tpad: %s: WAL tail torn (%v); resuming from the last durable record", name, stats.TailError)
		}
		info.Nodes, info.Edges = replayed.NumNodes(), replayed.NumEdges()
		return replayed, info, nil
	}
}

// enable turns on the durable write pipeline for every registered graph.
func (s *ingestSetup) enable(h *server.Handler, names []string) error {
	if s == nil {
		return nil
	}
	for _, name := range names {
		cfg := server.IngestConfig{
			Dir:          s.walDir(name),
			WAL:          s.wal,
			Queue:        s.queue,
			SnapshotPath: s.snapPath(name),
		}
		if err := h.EnableIngest(name, cfg); err != nil {
			return fmt.Errorf("serve: enabling ingest for %q: %w", name, err)
		}
	}
	return nil
}

// singleLoader rebuilds the engine for the legacy single-graph mode: a
// snapshot if the path is one, otherwise edge list + optional prebuilt
// index, otherwise edge list + preprocessing.
func singleLoader(graphPath, indexPath string, o tpa.Options) server.Loader {
	if strings.HasSuffix(graphPath, ".tpas") || strings.HasSuffix(graphPath, ".tpam") {
		return snapshotLoader(graphPath)
	}
	return func() (server.Engine, server.Info, error) {
		g, err := tpa.LoadGraph(graphPath)
		if err != nil {
			return nil, server.Info{}, err
		}
		var eng *tpa.Engine
		if indexPath != "" {
			f, err := os.Open(indexPath)
			if err != nil {
				return nil, server.Info{}, err
			}
			eng, err = tpa.LoadIndex(f, g)
			f.Close()
			if err != nil {
				return nil, server.Info{}, err
			}
		} else {
			eng, err = tpa.New(g, o)
			if err != nil {
				return nil, server.Info{}, err
			}
		}
		return eng, engineInfo(eng, graphPath), nil
	}
}

// snapshotLoader cold-starts from a combined snapshot: no edge-list parse,
// no preprocessing.
func snapshotLoader(path string) server.Loader {
	return func() (server.Engine, server.Info, error) {
		start := time.Now()
		eng, err := tpa.LoadSnapshotFile(path)
		if err != nil {
			return nil, server.Info{}, err
		}
		log.Printf("tpad: snapshot %s loaded in %v", path, time.Since(start).Round(time.Millisecond))
		return eng, engineInfo(eng, path), nil
	}
}

// edgeListLoader parses and preprocesses an edge list; used for directory
// entries that are not snapshots.
func edgeListLoader(path string, o tpa.Options) server.Loader {
	return func() (server.Engine, server.Info, error) {
		g, err := tpa.LoadGraph(path)
		if err != nil {
			return nil, server.Info{}, err
		}
		eng, err := tpa.New(g, o)
		if err != nil {
			return nil, server.Info{}, err
		}
		return eng, engineInfo(eng, path), nil
	}
}

func engineInfo(eng *tpa.Engine, path string) server.Info {
	// NumNodes/NumEdges, not Graph(): an engine carrying an uncompacted
	// mutation overlay (e.g. right after a WAL replay) has no base CSR.
	return server.Info{Nodes: eng.NumNodes(), Edges: eng.NumEdges(), Name: path}
}

// registerDir scans dir and registers every snapshot (.tpas/.tpam) and edge
// list (.tsv/.txt/.edges, optionally .gz) as a named, reloadable graph. The
// graph name is the file name without extensions; when several formats
// share a stem (the `tpad build` default layout), the memory-mapped
// snapshot wins over the heap snapshot, which wins over the edge list.
func registerDir(h *server.Handler, dir string, o tpa.Options, ing *ingestSetup) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("serve: reading -graphs dir: %w", err)
	}
	// Snapshot precedence: .tpam (memory-mapped) over .tpas, either over an
	// edge list with the same stem — the `tpad build` default layout leaves
	// all of them side by side.
	snapExt := make(map[string]string)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch {
		case strings.HasSuffix(e.Name(), ".tpam"):
			snapExt[strings.TrimSuffix(e.Name(), ".tpam")] = ".tpam"
		case strings.HasSuffix(e.Name(), ".tpas"):
			name := strings.TrimSuffix(e.Name(), ".tpas")
			if snapExt[name] == "" {
				snapExt[name] = ".tpas"
			}
		}
	}
	registered := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		name, loader := classify(path, e.Name(), o)
		if loader == nil {
			continue
		}
		if want := snapExt[name]; want != "" && !strings.HasSuffix(e.Name(), want) {
			log.Printf("tpad: %s shadowed by %s%s, skipping", path, name, want)
			continue
		}
		if err := h.RegisterLoader(name, ing.wrap(name, loader)); err != nil {
			return fmt.Errorf("serve: registering %s: %w", path, err)
		}
		registered++
	}
	if registered == 0 {
		return fmt.Errorf("serve: no snapshots (.tpas/.tpam) or edge lists found in %s", dir)
	}
	return nil
}

// classify maps a directory entry to a graph name and loader; unknown file
// types return a nil loader and are skipped.
func classify(path, base string, o tpa.Options) (string, server.Loader) {
	name, ext := stem(base)
	switch ext {
	case ".tpas", ".tpam":
		if strings.HasSuffix(base, ".gz") {
			return "", nil // snapshots are binary; gzip variants are not supported
		}
		return name, snapshotLoader(path)
	case ".tsv", ".txt", ".edges", ".el":
		return name, edgeListLoader(path, o)
	default:
		return "", nil
	}
}
