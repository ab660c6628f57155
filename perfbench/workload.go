package main

import (
	"fmt"
	"math/rand"

	"tpa"
	"tpa/internal/loadgen"
)

// Input graph of every workload: the community graph the repository's
// batch benchmarks and ROADMAP measurements use.
const (
	graphNodes       = 100_000
	graphEdges       = 1_200_000
	graphCommunities = 50
	topK             = 10
	batchSize        = 64
	shardCount       = 4 // batch-sharded's tpa.NewSharded shard count
	zipfS            = 1.0
	// seqLen is the length of each pre-generated read-seed sequence; longer
	// runs wrap around it.
	seqLen = 1 << 17
)

type kind int

const (
	kindTopK  kind = iota // GET /topk, open loop + closed loop
	kindBatch             // POST /batch of batchSize seeds, one closed-loop client
	kindMixed             // kindTopK reads plus open-loop POST /graphs/default/edges
)

// workload is one named traffic mix against one engine configuration.
// Rates are fixed, so later commits are measured at the same offered load.
// They sit at 10-20% of each workload's closed-loop capacity on the commit
// that introduced the benchmark (see README.md): with at most one
// connection per core, a higher rate makes the median request wait behind
// engine calls whenever the host slows down, and the figures stop
// repeating.
type workload struct {
	name   string
	kind   kind
	zipf   float64 // read-seed popularity exponent; 0 = uniform
	shards int     // tpa.NewSharded shard count; ≤ 1 builds tpa.New
	mapped bool    // serve a TPAM snapshot through tpa.LoadSnapshotMmap
	rate   float64 // open-loop read rate (requests/s); 0 for kindBatch

	// kindMixed write stream: writeRate events/s, each inserting
	// writeAdds fresh edges and deleting the edges inserted writeLag
	// events earlier, so the graph keeps its size.
	writeRate float64
	writeAdds int
	writeLag  int
}

var workloads = []workload{
	{name: "topk-uniform", kind: kindTopK, mapped: true, rate: 100},
	// topk-zipf is left out of BENCHMARK.json: its p50 is a ~0.5 ms cache
	// hit made mostly of thread wake-ups, and it moved 2-5x whenever the
	// host took CPU from the VM. It stays runnable for its traced ledger.
	{name: "topk-zipf", kind: kindTopK, zipf: zipfS, mapped: true, rate: 150},
	{name: "batch-sharded", kind: kindBatch, shards: shardCount, mapped: true},
	{name: "mixed-ingest", kind: kindMixed, rate: 100,
		writeRate: 0.5, writeAdds: 25, writeLag: 8},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// writeEvent is one POST /graphs/default/edges body.
type writeEvent struct {
	adds, removes [][2]int
}

func (e writeEvent) edges() int { return len(e.adds) + len(e.removes) }

// inputs is everything a run sends, generated from the run's seed alone.
type inputs struct {
	graph  *tpa.Graph
	seeds  []int32 // read seeds, in request order (wrapping)
	events []writeEvent
}

// Independent streams derived from the run seed (the graph uses the seed
// itself).
func readSeed(seed int64) int64  { return seed*1_000_003 + 1 }
func writeSeed(seed int64) int64 { return seed*1_000_003 + 2 }

// genGraph is the workload graph for seed; it is regenerated after the
// measured phases to check answers, so it must be deterministic.
func genGraph(seed int64) *tpa.Graph {
	return tpa.RandomCommunityGraph(graphNodes, graphEdges, graphCommunities, seed)
}

// genInputs builds the run's graph, read-seed sequence and (for
// kindMixed) enough write events to cover events seconds of writes.
func genInputs(w workload, seed int64, events int) (*inputs, error) {
	in := &inputs{graph: genGraph(seed), seeds: make([]int32, seqLen)}
	n := in.graph.NumNodes()
	if w.zipf > 0 {
		z, err := loadgen.NewZipf(n, w.zipf, readSeed(seed))
		if err != nil {
			return nil, err
		}
		for i := range in.seeds {
			in.seeds[i] = int32(z.Next())
		}
	} else {
		rng := rand.New(rand.NewSource(readSeed(seed)))
		for i := range in.seeds {
			in.seeds[i] = int32(rng.Intn(n))
		}
	}
	if w.kind == kindMixed {
		in.events = genEvents(in.graph, w, writeSeed(seed), events)
	}
	return in, nil
}

// genEvents builds count write events: event i inserts writeAdds edges
// absent from g and from every earlier event, and deletes the edges
// event i-writeLag inserted.
func genEvents(g *tpa.Graph, w workload, seed int64, count int) []writeEvent {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	used := make(map[[2]int]bool)
	evs := make([]writeEvent, count)
	for i := range evs {
		for len(evs[i].adds) < w.writeAdds {
			e := [2]int{rng.Intn(n), rng.Intn(n)}
			if e[0] == e[1] || used[e] || g.HasEdge(e[0], e[1]) {
				continue
			}
			used[e] = true
			evs[i].adds = append(evs[i].adds, e)
		}
		if i >= w.writeLag {
			evs[i].removes = evs[i-w.writeLag].adds
		}
	}
	return evs
}
