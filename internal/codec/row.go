package codec

import (
	"bytes"
	"fmt"
	"slices"

	"hgs/internal/delta"
	"hgs/internal/graph"
)

// A micro-delta row (EncodeDelta) leads with a sorted id index, so a
// point read can find and decode one state without decoding the rest.
// After the header byte (flagIndexed set) the payload is:
//
//	ids        uvarint n, then the n state ids ascending: the first
//	           as a varint, every next one as its uvarint gap from the
//	           previous
//	lengths    n uvarints, the byte length of each state body, in id
//	           order
//	tombstones uvarint t, then t ids ascending, coded like the state ids
//	bodies     the n state bodies back to back, without their ids: the
//	           attributes, then uvarint edge count and the edges sorted
//	           by (Other, Out), the first Other as a varint and every
//	           next one as its uvarint gap from the previous, each
//	           followed by its Out flag and attributes
//
// A row without flagIndexed is corrupt.

// EncodeDelta serializes a delta (component states + tombstones) as an
// indexed micro-delta row. The body a state carries from a stored row
// (graph.NodeState.Encoded) is copied: a decode accepts only the bytes
// encodeStateBody writes, so it is what encoding the state would write.
func (c Codec) EncodeDelta(d *delta.Delta) ([]byte, error) {
	b := getEncBuffer()
	defer putEncBuffer(b)
	ids := b.ids[:0]
	for id := range d.Nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	// The bodies go first into the scratch so the index can record their
	// lengths; frame writes the index ahead of them.
	lens := b.lens[:0]
	for _, id := range ids {
		start := b.buf.Len()
		if body := d.Nodes[id].Encoded(); body != "" {
			b.buf.WriteString(body)
		} else {
			encodeStateBody(b, d.Nodes[id])
		}
		lens = append(lens, b.buf.Len()-start)
	}
	bodies := b.buf.Len()
	b.sortedIDs(ids)
	for _, n := range lens {
		b.uvarint(uint64(n))
	}
	ids = ids[:0]
	for id := range d.Tombstones {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	b.sortedIDs(ids)
	b.ids, b.lens = ids, lens
	all := b.buf.Bytes()
	return c.frame(flagIndexed, all[bodies:], all[:bodies])
}

// sortedIDs writes an ascending id list: its length, the first id, then
// the gaps.
func (b *buffer) sortedIDs(ids []graph.NodeID) {
	b.uvarint(uint64(len(ids)))
	for i, id := range ids {
		if i == 0 {
			b.varint(int64(id))
		} else {
			b.uvarint(uint64(id - ids[i-1]))
		}
	}
}

// sortedIDs reads a list written by buffer.sortedIDs, rejecting one that
// is not strictly ascending.
func (r *reader) sortedIDs() ([]graph.NodeID, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	ids := make([]graph.NodeID, n)
	for i := range ids {
		if i == 0 {
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			ids[0] = graph.NodeID(v)
			continue
		}
		gap, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		// Wrapping arithmetic: next > prev exactly when the gap is
		// positive and does not run past the largest id.
		if ids[i] = ids[i-1] + graph.NodeID(gap); ids[i] <= ids[i-1] {
			return nil, fmt.Errorf("%w: ids not ascending", ErrCorrupt)
		}
	}
	return ids, nil
}

// encodeStateBody writes a node state without its id, the edges sorted
// by (Other, Out) with Other gap-coded.
func encodeStateBody(b *buffer, ns *graph.NodeState) {
	encodeAttrs(b, ns.Attrs)
	keys := b.edges[:0]
	for k := range ns.Edges {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, graph.CompareEdgeKeys)
	b.uvarint(uint64(len(keys)))
	for i, k := range keys {
		if i == 0 {
			b.varint(int64(k.Other))
		} else {
			b.uvarint(uint64(k.Other - keys[i-1].Other))
		}
		b.bool(k.Out)
		encodeAttrs(b, ns.Edges[k].Attrs)
	}
	b.edges = keys
}

// decodeStateBody reads a body written by encodeStateBody as node id's
// state, rejecting edges out of (Other, Out) order; its edge states are
// one slab, one allocation at any degree.
func decodeStateBody(r *reader, id graph.NodeID) (*graph.NodeState, error) {
	attrs, err := decodeAttrs(r)
	if err != nil {
		return nil, err
	}
	ns := &graph.NodeState{ID: id, Attrs: attrs}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return ns, nil
	}
	ns.Edges = make(map[graph.EdgeKey]*graph.EdgeState, n)
	slab := make([]graph.EdgeState, n)
	var prev graph.EdgeKey
	for i := 0; i < n; i++ {
		var k graph.EdgeKey
		if i == 0 {
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			k.Other = graph.NodeID(v)
		} else {
			gap, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			k.Other = prev.Other + graph.NodeID(gap)
		}
		if k.Out, err = r.bool(); err != nil {
			return nil, err
		}
		if i > 0 && (k.Other < prev.Other || graph.CompareEdgeKeys(prev, k) >= 0) {
			return nil, fmt.Errorf("%w: edges not ascending", ErrCorrupt)
		}
		ea, err := decodeAttrs(r)
		if err != nil {
			return nil, err
		}
		slab[i].Attrs = ea
		ns.Edges[k] = &slab[i]
		prev = k
	}
	return ns, nil
}

// DeltaRow is a micro-delta row parsed as far as its index: the ids of
// its states, ascending, and its tombstones, with every state body left
// encoded until State decodes it. A row is read-only and safe for
// concurrent use.
type DeltaRow struct {
	ids   []graph.NodeID
	spans []span // where each state's encoding lies in data
	tombs []graph.NodeID
	data  []byte
}

type span struct{ lo, hi uint32 }

// ParseDelta parses a micro-delta row up to its state bodies. The row
// reads its bodies from blob itself (a compressed row, from a private
// copy of the payload), so blob must not change while the row is in
// use.
func (c Codec) ParseDelta(blob []byte) (*DeltaRow, error) {
	data, release, err := unframe(blob, flagIndexed)
	if err != nil {
		return nil, err
	}
	defer release()
	if blob[0]&flagGzip != 0 {
		data = bytes.Clone(data) // the arena goes back to its pool
	}
	return parseRow(data)
}

// DecodeDelta parses a blob produced by EncodeDelta, decoding every
// state.
func (c Codec) DecodeDelta(blob []byte) (*delta.Delta, error) {
	data, release, err := unframe(blob, flagIndexed)
	if err != nil {
		return nil, err
	}
	defer release()
	row, err := parseRow(data)
	if err != nil {
		return nil, err
	}
	d := &delta.Delta{Nodes: make(map[graph.NodeID]*graph.NodeState, len(row.ids))}
	for i := range row.ids {
		ns, err := row.State(i)
		if err != nil {
			return nil, err
		}
		d.Nodes[ns.ID] = ns
	}
	for _, id := range row.tombs {
		d.MarkDeleted(id)
	}
	return d, nil
}

// DecodeDeltaState decodes the state of node id alone from a micro-delta
// row: found is false when the row holds no state for id (it may hold a
// tombstone; see DeltaRow.Tombstoned).
func (c Codec) DecodeDeltaState(blob []byte, id graph.NodeID) (ns *graph.NodeState, found bool, err error) {
	data, release, err := unframe(blob, flagIndexed)
	if err != nil {
		return nil, false, err
	}
	defer release()
	row, err := parseRow(data)
	if err != nil {
		return nil, false, err
	}
	i, ok := row.Find(id)
	if !ok {
		return nil, false, nil
	}
	if ns, err = row.State(i); err != nil {
		return nil, false, err
	}
	return ns, true, nil
}

// parseRow parses a row payload.
func parseRow(data []byte) (*DeltaRow, error) {
	if uint64(len(data)) > 1<<32-1 {
		return nil, fmt.Errorf("%w: row of %d bytes", ErrCorrupt, len(data))
	}
	r := &reader{data: data}
	ids, err := r.sortedIDs()
	if err != nil {
		return nil, err
	}
	spans := make([]span, len(ids))
	end := uint64(0)
	for i := range spans {
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(data)) || end+n > uint64(len(data)) {
			return nil, fmt.Errorf("%w: state bodies overrun the row", ErrCorrupt)
		}
		end += n
		spans[i].hi = uint32(end)
	}
	tombs, err := r.sortedIDs()
	if err != nil {
		return nil, err
	}
	if uint64(r.pos)+end != uint64(len(data)) {
		return nil, fmt.Errorf("%w: state bodies take %d of %d bytes", ErrCorrupt, end, len(data)-r.pos)
	}
	lo := uint32(r.pos)
	for i := range spans {
		spans[i].lo, spans[i].hi = lo, uint32(r.pos)+spans[i].hi
		lo = spans[i].hi
	}
	// The encoder never writes a state and a tombstone for one id.
	for i, j := 0, 0; i < len(ids) && j < len(tombs); {
		switch {
		case ids[i] < tombs[j]:
			i++
		case ids[i] > tombs[j]:
			j++
		default:
			return nil, fmt.Errorf("%w: node %d has a state and a tombstone", ErrCorrupt, ids[i])
		}
	}
	return &DeltaRow{ids: ids, spans: spans, tombs: tombs, data: data}, nil
}

// Len returns the number of states in the row.
func (x *DeltaRow) Len() int { return len(x.ids) }

// IDs returns the ids of the row's states, ascending; slot i of the row
// is IDs()[i]. The slice is the row's: do not modify it.
func (x *DeltaRow) IDs() []graph.NodeID { return x.ids }

// Tombstones returns the ids the row deletes, ascending. The slice is
// the row's: do not modify it.
func (x *DeltaRow) Tombstones() []graph.NodeID { return x.tombs }

// Find returns the slot of node id's state, and whether the row holds
// one.
func (x *DeltaRow) Find(id graph.NodeID) (int, bool) {
	return slices.BinarySearch(x.ids, id)
}

// Tombstoned reports whether the row deletes node id.
func (x *DeltaRow) Tombstoned(id graph.NodeID) bool {
	_, ok := slices.BinarySearch(x.tombs, id)
	return ok
}

// Body returns the encoded body of the state in slot i, which is the
// row's: do not modify it.
func (x *DeltaRow) Body(i int) []byte {
	s := x.spans[i]
	return x.data[s.lo:s.hi:s.hi]
}

// State decodes the state in slot i, a fresh state each call; the
// decode copies every byte it keeps out of the row.
func (x *DeltaRow) State(i int) (*graph.NodeState, error) {
	r := &reader{data: x.Body(i)}
	ns, err := decodeStateBody(r, x.ids[i])
	if err != nil {
		return nil, err
	}
	if r.pos != len(r.data) {
		return nil, fmt.Errorf("%w: state of node %d has %d trailing bytes", ErrCorrupt, x.ids[i], len(r.data)-r.pos)
	}
	return ns, nil
}
