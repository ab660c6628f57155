package core

import (
	"bufio"
	"fmt"
	"io"

	"tpa/internal/binio"
	"tpa/internal/graph"
)

// Combined snapshot: one self-describing container holding the binary CSR
// graph and the TPA index back to back, so a query server cold-starts with
// two sequential reads — no edge-list parsing and no re-preprocessing.
//
// Layout ("TPAS" version 2, all fields little-endian):
//
//	offset  size  field
//	0       4     magic "TPAS"
//	4       4     format version (2)
//	8       4     dangling-node policy (uint32, graph.DanglingPolicy)
//	12      4     flags (uint32; bit 0: permutation section present)
//	16      4     CRC32-C of the 16 header bytes
//	20      …     graph section (the "TPAG" codec, own checksum)
//	…       …     permutation section (only if flags bit 0; see below)
//	…       …     index section (the "TPA2"/"TPA3" codec, own checksum)
//
// Permutation section ("TPAP"): when the graph was reordered at build time
// the snapshot stores the permutation perm[internal] = external, so loaders
// can remap seed and result ids at the API boundary. A reordered snapshot
// without its permutation would silently answer for the wrong nodes, which
// is why the section rides inside the container instead of a sidecar file:
//
//	offset  size  field
//	0       4     magic "TPAP"
//	4       8     n, the node count (uint64; must match the graph section)
//	12      4n    perm (int32 each; a permutation of [0, n))
//	…       4     CRC32-C of every preceding byte
//
// Version 1 (no flags field, header CRC over 12 bytes, never a permutation
// section) is still readable. Writers emit version 2 only when a
// permutation or a non-default index precision requires it, so
// natural-order float64 snapshots remain readable by older builds. Each
// section carries its own CRC32-C footer, so corruption is localized and
// every decode failure wraps ErrBadSnapshot.

const (
	snapMagic     = uint32(0x53415054) // "TPAS" on the wire (little-endian)
	snapVersionV1 = uint32(1)
	snapVersion   = uint32(2)

	permMagic = uint32(0x50415054) // "TPAP" on the wire (little-endian)

	snapFlagPerm = uint32(1 << 0)
)

// WriteSnapshot writes the combined graph+index snapshot for t with no
// permutation (natural node order). See WriteSnapshotPerm.
func WriteSnapshot(w io.Writer, t *TPA) error { return WriteSnapshotPerm(w, t, nil) }

// WriteSnapshotPerm writes the combined graph+index snapshot for t, with
// perm[internal] = external recorded when the engine's graph was reordered
// (nil means natural order). It fails for streaming engines: the walk must
// be an in-memory *graph.Walk so the adjacency arrays are available to
// serialize.
func WriteSnapshotPerm(w io.Writer, t *TPA, perm []int32) error {
	gw, ok := t.walk.(*graph.Walk)
	if !ok {
		return fmt.Errorf("core: snapshot requires an in-memory graph operator (got %T)", t.walk)
	}
	if perm != nil {
		if err := graph.CheckPermutation(perm, gw.N()); err != nil {
			return fmt.Errorf("core: snapshot permutation invalid: %w", err)
		}
	}
	version, flags := snapVersionV1, uint32(0)
	if perm != nil {
		version, flags = snapVersion, flags|snapFlagPerm
	}
	if t.prec != Float64 {
		version = snapVersion
	}
	bw := bufio.NewWriter(w)
	e := binio.NewWriter(bw)
	e.U32(snapMagic)
	e.U32(version)
	e.U32(uint32(gw.Policy()))
	if version >= snapVersion {
		e.U32(flags)
	}
	if err := e.Footer(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := graph.WriteBinary(w, gw.Graph()); err != nil {
		return err
	}
	if flags&snapFlagPerm != 0 {
		pe := binio.NewWriter(bw)
		pe.U32(permMagic)
		pe.U64(uint64(len(perm)))
		pe.I32s(perm)
		if err := pe.Footer(); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	return t.WriteIndex(w)
}

// ReadSnapshot decodes a combined snapshot written by WriteSnapshot /
// WriteSnapshotPerm and returns the reconstructed walk operator, the bound
// TPA state, and the stored permutation (nil for natural-order snapshots).
// Decode failures wrap ErrBadSnapshot and return no partial state.
func ReadSnapshot(r io.Reader) (*graph.Walk, *TPA, []int32, error) {
	return ReadSnapshotBounded(r, -1)
}

// ReadSnapshotBounded is ReadSnapshot for streams whose total size is
// known (e.g. a file): the graph section's header length fields are
// checked against maxBytes before anything is allocated, so a crafted or
// corrupt header cannot drive a giant allocation. maxBytes < 0 means
// unknown. (The permutation and index sections need no bound: their node
// counts are cross-checked against the decoded graph before their payloads
// are read.)
func ReadSnapshotBounded(r io.Reader, maxBytes int64) (*graph.Walk, *TPA, []int32, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	d := binio.NewReader(br)
	magic := d.U32()
	version := d.U32()
	policy := d.U32()
	var flags uint32
	if version >= snapVersion {
		flags = d.U32()
	}
	if err := d.Err(); err != nil {
		return nil, nil, nil, err
	}
	if magic != snapMagic {
		return nil, nil, nil, binio.Errf("core: snapshot has bad magic %#x", magic)
	}
	if version != snapVersionV1 && version != snapVersion {
		return nil, nil, nil, binio.Errf("core: snapshot version %d unsupported (want %d or %d)",
			version, snapVersionV1, snapVersion)
	}
	if policy > uint32(graph.DanglingUniform) {
		return nil, nil, nil, binio.Errf("core: snapshot has unknown dangling policy %d", policy)
	}
	if flags&^snapFlagPerm != 0 {
		return nil, nil, nil, binio.Errf("core: snapshot has unknown flags %#x", flags)
	}
	if err := d.Footer(); err != nil {
		return nil, nil, nil, err
	}
	g, err := graph.ReadBinaryBounded(br, maxBytes)
	if err != nil {
		return nil, nil, nil, err
	}
	var perm []int32
	if flags&snapFlagPerm != 0 {
		pd := binio.NewReader(br)
		if pm := pd.U32(); pd.Err() == nil && pm != permMagic {
			return nil, nil, nil, binio.Errf("core: snapshot permutation section has bad magic %#x", pm)
		}
		pn := pd.U64()
		if err := pd.Err(); err != nil {
			return nil, nil, nil, err
		}
		if int(pn) != g.NumNodes() {
			return nil, nil, nil, binio.Errf("core: snapshot permutation has %d nodes but graph has %d",
				pn, g.NumNodes())
		}
		perm = make([]int32, g.NumNodes())
		pd.I32s(perm)
		if err := pd.Footer(); err != nil {
			return nil, nil, nil, err
		}
		if err := graph.CheckPermutation(perm, g.NumNodes()); err != nil {
			return nil, nil, nil, binio.Errf("core: snapshot permutation invalid: %v", err)
		}
	}
	w := graph.NewWalk(g, graph.DanglingPolicy(policy))
	t, err := ReadIndex(br, w)
	if err != nil {
		return nil, nil, nil, err
	}
	return w, t, perm, nil
}
