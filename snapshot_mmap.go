package tpa

import (
	"fmt"
	"io"
	"math"
	"os"

	"tpa/internal/binio"
	"tpa/internal/core"
	"tpa/internal/graph"
	"tpa/internal/mmapio"
	"tpa/internal/rwr"
	"tpa/internal/shard"
	"tpa/internal/sparse"
)

// TPAM: the memory-mappable engine snapshot. Where TPAS is a decode format
// (chunked streams copied into fresh heap arrays on load), TPAM lays every
// engine array out as a raw little-endian section on a page boundary, so a
// read-only mmap of the file IS the engine's storage: cold start binds
// views instead of copying, resident memory is shared page cache, and load
// cost is O(validation), not O(copy). The generic container — header,
// section table, per-section CRC-32C — lives in internal/mmapio; this file
// defines what the sections mean for a TPA engine.
//
// Sections (ids are stable; readers must tolerate unknown extra sections):
//
//	 1 meta       bytes    64-byte fixed header, layout below
//	 2 outPtr     int64    n+1   CSR row pointers
//	 3 outIdx     int32    m     CSR column indices
//	 4 inPtr      int64    n+1   CSC column pointers
//	 5 inIdx      int32    m     CSC row indices
//	 6 invdeg     float64  n     1/outdeg (0 for dangling nodes)
//	 7 invdeg32   float32  n     float32 twin of invdeg
//	 8 dangling   int32    d     ascending dangling-node list
//	 9 stranger   float64  n     the CPI index (r̃_stranger master)
//	10 stranger32 float32  n     served index, Float32 engines only
//	11 perm       int32    n     perm[internal]=external, reordered only
//	12 shards     int64    s+1   shard bounds, sharded engines only
//
// meta layout (little-endian): u64 n, u64 m, u64 danglingCount, u32 policy,
// u32 S, u32 T, u32 preIters, u32 precision (0=float64, 1=float32),
// u32 flags (0), f64 C, f64 Eps.
//
// Trust model: the writer refuses to serialize a graph that fails the full
// structural Validate, and every section carries a CRC-32C that the loader
// verifies before any view reaches a kernel. A checksum match means the
// mapped bytes are bit-identical to what the (validating) writer produced,
// so the loader does not repeat the O(m) structural walk — the same
// write-time-validate + read-time-checksum split RocksDB uses for block
// CRCs. Verification is one sequential hardware-CRC pass at memory
// bandwidth, several times cheaper than the structural walk and an order
// of magnitude cheaper than the TPAS decode+copy it replaces; it is also
// read-only, so the load allocates O(1) in graph size on the zero-copy
// path. Any corruption — headers, adjacency, numeric payloads — fails
// typed with ErrBadSnapshot. What this deliberately does not defend
// against is an adversary who rewrites a section and its checksum; such a
// file can make a later query index out of range and panic. Go's bounds
// checks keep that from being memory corruption, and the panic always
// reaches the goroutine that called the engine: single queries run on it,
// and batch workers' panics are re-raised on it by core.runBatch. Under
// net/http that goroutine is the request's handler, whose panic the server
// recovers by dropping that one connection, so a forged file fails
// requests rather than stopping tpad. Callers needing structural proof of
// a file of unknown provenance can still run Graph.Validate on the loaded
// engine's arrays.
const (
	mmapSecMeta       = 1
	mmapSecOutPtr     = 2
	mmapSecOutIdx     = 3
	mmapSecInPtr      = 4
	mmapSecInIdx      = 5
	mmapSecInvDeg     = 6
	mmapSecInvDeg32   = 7
	mmapSecDangling   = 8
	mmapSecStranger   = 9
	mmapSecStranger32 = 10
	mmapSecPerm       = 11
	mmapSecShards     = 12

	mmapMetaSize = 64
)

// SaveSnapshotMmap writes the engine as a memory-mappable TPAM snapshot to
// path (atomically, via a temporary file). The restrictions of SaveSnapshot
// apply: streaming engines cannot snapshot, engines with pending mutations
// must Compact first.
func (e *Engine) SaveSnapshotMmap(path string) error {
	if e.dwalk != nil {
		return fmt.Errorf("tpa: engine has pending mutations; Compact() before snapshotting")
	}
	if e.walk == nil {
		return fmt.Errorf("tpa: streaming engines cannot be snapshotted")
	}
	g := e.walk.Graph()
	// The load path trusts checksummed sections instead of re-validating
	// structure (see the trust model above); that only holds if nothing
	// structurally invalid is ever written.
	if err := g.Validate(); err != nil {
		return fmt.Errorf("tpa: refusing to snapshot invalid graph: %v", err)
	}
	outPtr, outIdx := g.RawCSR()
	inPtr, inIdx := g.RawCSC()
	invdeg, invdeg32, dangling := e.walk.RawNormalization()
	stranger := e.tpa.StrangerVector()
	params := e.tpa.Params()
	cfg := e.tpa.Config()

	meta := make([]byte, mmapMetaSize)
	le := mmapLE{}
	le.putU64(meta[0:], uint64(g.NumNodes()))
	le.putU64(meta[8:], uint64(g.NumEdges()))
	le.putU64(meta[16:], uint64(len(dangling)))
	le.putU32(meta[24:], uint32(e.walk.Policy()))
	le.putU32(meta[28:], uint32(params.S))
	le.putU32(meta[32:], uint32(params.T))
	le.putU32(meta[36:], uint32(e.tpa.PreprocessIters()))
	le.putU32(meta[40:], uint32(e.tpa.Precision()))
	le.putU32(meta[44:], 0)
	le.putF64(meta[48:], cfg.C)
	le.putF64(meta[56:], cfg.Eps)

	w := mmapio.NewWriter()
	w.Bytes(mmapSecMeta, meta)
	w.I64s(mmapSecOutPtr, outPtr)
	w.I32s(mmapSecOutIdx, outIdx)
	w.I64s(mmapSecInPtr, inPtr)
	w.I32s(mmapSecInIdx, inIdx)
	w.F64s(mmapSecInvDeg, invdeg)
	w.F32s(mmapSecInvDeg32, invdeg32)
	w.I32s(mmapSecDangling, dangling)
	w.F64s(mmapSecStranger, stranger)
	if e.tpa.Precision() == Float32 {
		w.F32s(mmapSecStranger32, sparse.Round32(stranger, make(sparse.Vector32, len(stranger))))
	}
	if e.perm != nil {
		w.I32s(mmapSecPerm, e.perm)
	}
	if e.shardBounds != nil {
		b64 := make([]int64, len(e.shardBounds))
		for i, b := range e.shardBounds {
			b64[i] = int64(b)
		}
		w.I64s(mmapSecShards, b64)
	}
	return w.WriteFile(path)
}

// LoadSnapshotMmap maps a TPAM snapshot written by SaveSnapshotMmap and
// binds an engine directly to the mapping: adjacency, normalization and
// index arrays are views into the file, shared with every other process
// serving it. The engine rejects ApplyEdges; release the mapping with
// Close when done (engines that are simply dropped release it via
// finalizer). On platforms without mmap support the file is decoded onto
// the heap instead — same answers, plain memory. Decode failures wrap
// ErrBadSnapshot.
func LoadSnapshotMmap(path string) (*Engine, error) {
	s, err := mmapio.Open(path)
	if err != nil {
		return nil, wrapSnapErr(path, err)
	}
	e, err := engineFromMmap(s)
	if err != nil {
		s.Close()
		return nil, wrapSnapErr(path, err)
	}
	return e, nil
}

// loadSnapshotMmapBytes is the in-memory load path, exercised by the fuzz
// target: identical validation to LoadSnapshotMmap, no file or mapping.
func loadSnapshotMmapBytes(data []byte) (*Engine, error) {
	s, err := mmapio.Decode(data)
	if err != nil {
		return nil, err
	}
	e, err := engineFromMmap(s)
	if err != nil {
		s.Close()
		return nil, err
	}
	return e, nil
}

// engineFromMmap builds an Engine over the snapshot's sections. On success
// the engine owns s (pinned via the graph's backing reference and released
// by Close); on failure the caller closes it.
func engineFromMmap(s *mmapio.Snapshot) (*Engine, error) {
	// CRC-verify every section up front — the integrity gate the trust
	// model (see the package comment) rests on.
	if err := s.Verify(); err != nil {
		return nil, err
	}
	meta, err := s.Bytes(mmapSecMeta)
	if err != nil {
		return nil, err
	}
	if len(meta) != mmapMetaSize {
		return nil, binio.Errf("meta section is %d bytes, want %d", len(meta), mmapMetaSize)
	}
	le := mmapLE{}
	n64 := le.u64(meta[0:])
	m64 := le.u64(meta[8:])
	d64 := le.u64(meta[16:])
	policy := graph.DanglingPolicy(le.u32(meta[24:]))
	params := core.Params{S: int(int32(le.u32(meta[28:]))), T: int(int32(le.u32(meta[32:])))}
	preIters := int(int32(le.u32(meta[36:])))
	precRaw := le.u32(meta[40:])
	cfg := rwr.Config{C: le.f64(meta[48:]), Eps: le.f64(meta[56:])}

	if n64 > uint64(graph.MaxNodeID)+1 {
		return nil, binio.Errf("node count %d out of range", n64)
	}
	n := int(n64)
	if m64 > uint64(s.SizeBytes()) {
		// Every edge occupies ≥ 4 bytes in each adjacency section, so the
		// file size bounds any honest edge count.
		return nil, binio.Errf("edge count %d exceeds snapshot size", m64)
	}
	m := int64(m64)
	if policy < graph.DanglingSelfLoop || policy > graph.DanglingUniform {
		return nil, binio.Errf("unknown dangling policy %d", policy)
	}
	prec := core.Precision(precRaw)
	if prec != Float64 && prec != Float32 {
		return nil, binio.Errf("unknown precision %d", precRaw)
	}

	outPtr, err := s.I64s(mmapSecOutPtr)
	if err != nil {
		return nil, err
	}
	outIdx, err := s.I32s(mmapSecOutIdx)
	if err != nil {
		return nil, err
	}
	inPtr, err := s.I64s(mmapSecInPtr)
	if err != nil {
		return nil, err
	}
	inIdx, err := s.I32s(mmapSecInIdx)
	if err != nil {
		return nil, err
	}
	if len(outPtr) != n+1 || len(inPtr) != n+1 {
		return nil, binio.Errf("pointer sections have %d/%d entries, want %d", len(outPtr), len(inPtr), n+1)
	}
	if int64(len(outIdx)) != m || int64(len(inIdx)) != m {
		return nil, binio.Errf("index sections have %d/%d entries, want %d", len(outIdx), len(inIdx), m)
	}
	// Checksums verified above guarantee these are the validating writer's
	// bytes, so the O(m) structural walk is not repeated here (trust model
	// in the package comment).
	g, err := graph.FromCSRArrays(n, outPtr, outIdx, inPtr, inIdx, s)
	if err != nil {
		return nil, binio.Errf("%v", err)
	}

	invdeg, err := s.F64s(mmapSecInvDeg)
	if err != nil {
		return nil, err
	}
	invdeg32, err := s.F32s(mmapSecInvDeg32)
	if err != nil {
		return nil, err
	}
	dangling, err := s.I32s(mmapSecDangling)
	if err != nil {
		return nil, err
	}
	if uint64(len(dangling)) != d64 {
		return nil, binio.Errf("dangling section has %d entries, meta says %d", len(dangling), d64)
	}
	walk, err := graph.NewWalkFromParts(g, policy, invdeg, invdeg32, dangling)
	if err != nil {
		return nil, binio.Errf("%v", err)
	}

	var shardBounds []int
	if s.Has(mmapSecShards) {
		b64, err := s.I64s(mmapSecShards)
		if err != nil {
			return nil, err
		}
		shardBounds = make([]int, len(b64))
		for i, b := range b64 {
			if b < 0 || b > int64(n) {
				return nil, binio.Errf("shard bound %d outside [0,%d]", b, n)
			}
			shardBounds[i] = int(b)
		}
		if err := shard.CheckBounds(shardBounds, n); err != nil {
			return nil, binio.Errf("%v", err)
		}
	}

	stranger, err := s.F64s(mmapSecStranger)
	if err != nil {
		return nil, err
	}
	var stranger32 sparse.Vector32
	if prec == Float32 {
		if stranger32, err = s.F32s(mmapSecStranger32); err != nil {
			return nil, err
		}
	}
	tp, err := core.NewFromParts(walk, cfg, params, stranger, stranger32, prec, preIters)
	if err != nil {
		return nil, binio.Errf("%v", err)
	}

	var perm, inv []int32
	if s.Has(mmapSecPerm) {
		if perm, err = s.I32s(mmapSecPerm); err != nil {
			return nil, err
		}
		if err := graph.CheckPermutation(perm, n); err != nil {
			return nil, binio.Errf("%v", err)
		}
		inv = graph.InvertPermutation(perm)
	}

	e := &Engine{tpa: tp, walk: walk, shardBounds: shardBounds, perm: perm, inv: inv, snap: s}
	e.applyMutationOpts(Options{})
	return e, nil
}

// Close releases resources the engine holds beyond the heap — today the
// file mapping of an mmap-loaded engine. It is a no-op on other engines and
// idempotent. The engine must not be queried after Close: its arrays were
// views into the mapping.
func (e *Engine) Close() error {
	if e.snap != nil {
		return e.snap.Close()
	}
	return nil
}

// Mapped reports whether the engine serves from a live file mapping (false
// for heap engines, and for TPAM loads that fell back to a heap decode).
func (e *Engine) Mapped() bool { return e.snap != nil && e.snap.Mapped() }

// StorageBytes reports the engine's storage split between memory-mapped
// bytes (file-backed page cache, shared across processes serving the same
// snapshot) and private heap bytes. Streaming engines report 0/0 — their
// state is on disk, not in either budget.
func (e *Engine) StorageBytes() (mapped, heap int64) {
	if e.snap != nil {
		if e.snap.Mapped() {
			return e.snap.SizeBytes(), 0
		}
		return 0, e.snap.SizeBytes()
	}
	if e.walk != nil {
		g := e.walk.Graph()
		invdeg, invdeg32, dangling := e.walk.RawNormalization()
		heap = g.Bytes() + int64(len(invdeg))*8 + int64(len(invdeg32))*4 + int64(len(dangling))*4
	} else if e.dwalk != nil {
		heap = e.dwalk.Delta().Base().Bytes()
	}
	return 0, heap + e.IndexBytes()
}

// isMmapSnapshot sniffs the first four bytes of path for the TPAM magic.
func isMmapSnapshot(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var b [4]byte
	if _, err := io.ReadFull(f, b[:]); err != nil {
		return false, err
	}
	return mmapLE{}.u32(b[:]) == mmapio.Magic, nil
}

func wrapSnapErr(path string, err error) error {
	return fmt.Errorf("tpa: loading snapshot %s: %w", path, err)
}

// mmapLE is the little-endian codec of the TPAM meta section — fixed-width
// fields at fixed offsets, no chunking (the container already frames and
// checksums the section).
type mmapLE struct{}

func (mmapLE) u32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (l mmapLE) u64(b []byte) uint64 {
	return uint64(l.u32(b)) | uint64(l.u32(b[4:]))<<32
}

func (l mmapLE) f64(b []byte) float64 { return math.Float64frombits(l.u64(b)) }

func (mmapLE) putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func (l mmapLE) putU64(b []byte, v uint64) {
	l.putU32(b, uint32(v))
	l.putU32(b[4:], uint32(v>>32))
}

func (l mmapLE) putF64(b []byte, v float64) { l.putU64(b, math.Float64bits(v)) }
