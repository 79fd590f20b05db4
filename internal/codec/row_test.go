package codec

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"hgs/internal/delta"
	"hgs/internal/graph"
)

// encodeLegacyDelta writes d in the layout rows had before the id index:
// no flagIndexed, each state leading with its id, plain tombstone ids.
// Decoders refuse it; it stays as a row-size reference and a fuzz seed.
func encodeLegacyDelta(c Codec, states []*graph.NodeState, tombs []graph.NodeID) []byte {
	b := &buffer{}
	b.uvarint(uint64(len(states)))
	for _, ns := range states {
		encodeNodeState(b, ns)
	}
	b.uvarint(uint64(len(tombs)))
	for _, id := range tombs {
		b.varint(int64(id))
	}
	blob, err := c.frame(flagPlain, b.buf.Bytes())
	if err != nil {
		panic(err)
	}
	return blob
}

func sortedStates(d *delta.Delta) []*graph.NodeState {
	var out []*graph.NodeState
	for _, id := range sortedIDs(d.Nodes) {
		out = append(out, d.Nodes[id])
	}
	return out
}

func sortedIDs[V any](m map[graph.NodeID]V) []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// checkStates requires DecodeDeltaState to return exactly want's state
// for every id of want, and nothing for its tombstones and for absent
// ids.
func checkStates(t *testing.T, c Codec, blob []byte, want *delta.Delta) {
	t.Helper()
	for id, ns := range want.Nodes {
		got, found, err := c.DecodeDeltaState(blob, id)
		if err != nil || !found || !reflect.DeepEqual(got, ns) {
			t.Fatalf("DecodeDeltaState(%d) = %v, %v, %v; want %v", id, got, found, err, ns)
		}
	}
	for id := range want.Tombstones {
		if got, found, err := c.DecodeDeltaState(blob, id); err != nil || found {
			t.Fatalf("DecodeDeltaState(tombstone %d) = %v, %v, %v", id, got, found, err)
		}
	}
	for _, id := range []graph.NodeID{-7, 31, 999, math.MaxInt64} {
		if _, ok := want.Nodes[id]; ok {
			continue
		}
		if _, found, err := c.DecodeDeltaState(blob, id); err != nil || found {
			t.Fatalf("DecodeDeltaState(absent %d) = %v, %v", id, found, err)
		}
	}
	row, err := c.ParseDelta(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(row.IDs(), sortedIDs(want.Nodes)) || !slices.Equal(row.Tombstones(), sortedIDs(want.Tombstones)) {
		t.Fatalf("row index %v / %v, want %v / %v", row.IDs(), row.Tombstones(), sortedIDs(want.Nodes), sortedIDs(want.Tombstones))
	}
}

// TestDecodeDeltaStateMatchesWhole decodes every state of indexed rows,
// plain and compressed, one id at a time.
func TestDecodeDeltaStateMatchesWhole(t *testing.T) {
	for _, c := range []Codec{{}, {Compress: true}} {
		for seed := int64(1); seed <= 8; seed++ {
			d := randDelta(seed, 150)
			blob, err := c.EncodeDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			whole, err := c.DecodeDelta(blob)
			if err != nil || !whole.Equal(d) {
				t.Fatalf("seed %d: whole decode %v, %v", seed, whole, err)
			}
			checkStates(t, c, blob, d)
		}
	}
}

// TestDeltaRowExtremeIDs covers the gap coding at the ends of the id
// range: negative ids, both extremes, and edges between them.
func TestDeltaRowExtremeIDs(t *testing.T) {
	ids := []graph.NodeID{math.MinInt64, -1, 0, 1, math.MaxInt64}
	d := delta.New()
	for _, id := range ids {
		ns := graph.NewNodeState(id)
		ns.Edges = map[graph.EdgeKey]*graph.EdgeState{}
		for _, o := range ids {
			ns.Edges[graph.EdgeKey{Other: o, Out: true}] = &graph.EdgeState{}
			ns.Edges[graph.EdgeKey{Other: o, Out: false}] = &graph.EdgeState{Attrs: graph.Attrs{"w": "1"}}
		}
		d.Put(ns)
	}
	d.MarkDeleted(math.MaxInt64 - 1)
	d.MarkDeleted(math.MinInt64 + 1)
	c := Codec{}
	blob, err := c.EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DecodeDelta(blob)
	if err != nil || !got.Equal(d) || len(got.Tombstones) != 2 {
		t.Fatalf("round trip: %v, %v", got, err)
	}
	checkStates(t, c, blob, d)
}

// TestUnindexedRowRefused requires every reader of micro-delta rows to
// refuse a row without the id index, of the layout written before it,
// as corrupt: that layout is no longer read.
func TestUnindexedRowRefused(t *testing.T) {
	for _, c := range []Codec{{}, {Compress: true}} {
		d := randDelta(3, 200)
		d.MarkDeleted(1001)
		blob := encodeLegacyDelta(c, sortedStates(d), sortedIDs(d.Tombstones))
		if _, err := c.ParseDelta(blob); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ParseDelta: %v, want ErrCorrupt", err)
		}
		if got, err := c.DecodeDelta(blob); got != nil || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeDelta: %v, %v, want ErrCorrupt", got, err)
		}
		for id := range d.Nodes {
			if _, _, err := c.DecodeDeltaState(blob, id); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeDeltaState(%d): %v, want ErrCorrupt", id, err)
			}
			break
		}
	}
}

// TestDeltaRowRejectsNonCanonical corrupts the index of an indexed row in
// ways a byte flip rarely reaches: every decoder must refuse it.
func TestDeltaRowRejectsNonCanonical(t *testing.T) {
	body := func(b *buffer) { encodeStateBody(b, graph.NewNodeState(0)) } // 2 bytes: no attrs, no edges
	rows := map[string]func(b *buffer){
		"descending ids": func(b *buffer) {
			b.uvarint(2)
			b.varint(5)
			b.uvarint(0)
			b.uvarint(2)
			b.uvarint(2)
			b.uvarint(0)
			body(b)
			body(b)
		},
		"state and tombstone": func(b *buffer) {
			b.sortedIDs([]graph.NodeID{3})
			b.uvarint(2)
			b.sortedIDs([]graph.NodeID{3})
			body(b)
		},
		"lengths overrun": func(b *buffer) {
			b.sortedIDs([]graph.NodeID{3})
			b.uvarint(math.MaxUint64)
			b.sortedIDs(nil)
			body(b)
		},
		"trailing bytes": func(b *buffer) {
			b.sortedIDs([]graph.NodeID{3})
			b.uvarint(2)
			b.sortedIDs(nil)
			body(b)
			b.buf.WriteByte(0)
		},
		"body longer than its length": func(b *buffer) {
			b.sortedIDs([]graph.NodeID{3, 4})
			b.uvarint(1)
			b.uvarint(3)
			b.sortedIDs(nil)
			body(b)
			body(b)
		},
		"edges out of order": oneState(func(e *buffer) {
			e.uvarint(0) // no attrs
			e.uvarint(2)
			e.varint(7)
			e.bool(true)
			e.uvarint(0)
			e.uvarint(0) // same Other, in-edge after out-edge
			e.bool(false)
			e.uvarint(0)
		}),
		"attribute keys out of order": oneState(func(e *buffer) {
			e.uvarint(2)
			e.str("b")
			e.str("1")
			e.str("a")
			e.str("2")
			e.uvarint(0) // no edges
		}),
		"attribute key repeated": oneState(func(e *buffer) {
			e.uvarint(2)
			e.str("a")
			e.str("1")
			e.str("a")
			e.str("2")
			e.uvarint(0)
		}),
		"edge attribute keys out of order": oneState(func(e *buffer) {
			e.uvarint(0)
			e.uvarint(1)
			e.varint(7)
			e.bool(true)
			e.uvarint(2)
			e.str("y")
			e.str("")
			e.str("x")
			e.str("")
		}),
		"longer varint than needed": oneState(func(e *buffer) {
			e.buf.Write([]byte{0x80, 0x00}) // no attrs, in two bytes
			e.uvarint(0)
		}),
		"edge direction neither 0 nor 1": oneState(func(e *buffer) {
			e.uvarint(0)
			e.uvarint(1)
			e.varint(7)
			e.buf.WriteByte(2)
			e.uvarint(0)
		}),
	}
	c := Codec{}
	for name, write := range rows {
		b := &buffer{}
		write(b)
		blob, err := c.frame(flagIndexed, b.buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DecodeDelta(blob); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeDelta error %v, want ErrCorrupt", name, err)
		}
		for _, id := range []graph.NodeID{3, 4, 5} {
			if _, found, err := c.DecodeDeltaState(blob, id); err == nil && found {
				if _, werr := c.DecodeDelta(blob); werr != nil {
					continue // a lazy read may find a good state beside a bad one
				}
				t.Errorf("%s: DecodeDeltaState(%d) decoded a state", name, id)
			}
		}
	}
	// The index flag belongs to micro-delta rows only.
	if _, err := c.DecodeEvents([]byte{flagIndexed, 0}); err == nil {
		t.Error("DecodeEvents accepted an indexed header")
	}
	if _, err := c.DecodeNodeState([]byte{flagIndexed | flagGzip, 0}); err == nil {
		t.Error("DecodeNodeState accepted an indexed header")
	}
}

// oneState writes a row holding node 3 alone, whose body body writes.
func oneState(body func(e *buffer)) func(b *buffer) {
	return func(b *buffer) {
		var e buffer
		body(&e)
		b.sortedIDs([]graph.NodeID{3})
		b.uvarint(uint64(e.buf.Len()))
		b.sortedIDs(nil)
		b.buf.Write(e.buf.Bytes())
	}
}

// TestIndexedRowsAreSmaller pins the point of the format bump on a
// build-shaped delta: the index plus gap-coded edges take fewer bytes
// than the old layout, whose states each carried a full id and whose
// edges carried full Other ids.
func TestIndexedRowsAreSmaller(t *testing.T) {
	g := graph.New()
	for u := graph.NodeID(1000); u < 1400; u++ {
		for k := graph.NodeID(1); k <= 6; k++ {
			g.AddEdge(u, 1000+(u*k*7919)%400)
		}
	}
	d := delta.FromGraph(g)
	c := Codec{}
	indexed, err := c.EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	legacy := encodeLegacyDelta(c, sortedStates(d), nil)
	if len(indexed) >= len(legacy) {
		t.Fatalf("indexed row %d bytes, legacy %d", len(indexed), len(legacy))
	}
	t.Logf("indexed %d bytes, legacy %d (%.1f%%)", len(indexed), len(legacy), 100*float64(len(indexed)-len(legacy))/float64(len(legacy)))
}

// FuzzDecodeDeltaState checks the lazy decoder against the whole one on
// any blob: when the whole decode succeeds, the single-state decode of
// any id succeeds and returns exactly the whole decode's state (or no
// state when it holds none); when the single-state decode fails, the
// whole decode fails too. (A whole decode may fail where a lazy one
// succeeds: the lazy read never looks at the other states' bodies.)
func FuzzDecodeDeltaState(f *testing.F) {
	for i, c := range []Codec{{}, {Compress: true}} {
		d := randDelta(int64(21+i), 30)
		if blob, err := c.EncodeDelta(d); err == nil {
			f.Add(blob, int64(3))
			f.Add(blob[:len(blob)-1], int64(3))
		}
		f.Add(encodeLegacyDelta(c, sortedStates(d), sortedIDs(d.Tombstones)), int64(5))
	}
	f.Add([]byte{flagIndexed}, int64(0))
	f.Fuzz(func(t *testing.T, blob []byte, id int64) {
		c := Codec{}
		nid := graph.NodeID(id)
		whole, werr := c.DecodeDelta(blob)
		ns, found, err := c.DecodeDeltaState(blob, nid)
		if err != nil {
			if ns != nil || found {
				t.Fatalf("DecodeDeltaState error %v but returned a state", err)
			}
			if werr == nil {
				t.Fatalf("DecodeDeltaState(%d) failed (%v) where DecodeDelta succeeded", id, err)
			}
			return
		}
		if werr != nil {
			return
		}
		want, ok := whole.Nodes[nid]
		checkBodiesReencode(t, blob)
		if found != ok || !reflect.DeepEqual(ns, want) {
			t.Fatalf("DecodeDeltaState(%d) = %v (found %v), whole decode holds %v (%v)", id, ns, found, want, ok)
		}
		// Every id the whole decode holds decodes alone to the same state.
		for id, want := range whole.Nodes {
			got, found, err := c.DecodeDeltaState(blob, id)
			if err != nil || !found || !reflect.DeepEqual(got, want) {
				t.Fatalf("DecodeDeltaState(%d) = %v, %v, %v; whole decode holds %v", id, got, found, err, want)
			}
		}
		// A decoded row re-encodes to bytes that decode to the same row.
		re, err := c.EncodeDelta(whole)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := c.DecodeDelta(re); err != nil || !reflect.DeepEqual(again, whole) {
			t.Fatalf("re-encoded row decodes to %v, %v", again, err)
		}
	})
}

// TestDecodedEdgeStatesOneAllocation requires a decoded state's edge
// states to cost one allocation, whatever the degree: decoding an
// attribute-free node of degree 4d allocates as often as one of degree
// d. An edge attribute write through a Graph that holds the decoded
// state, frozen as the fetch layer freezes it, must leave the state and
// a second decode of the row unchanged.
func TestDecodedEdgeStatesOneAllocation(t *testing.T) {
	const d = 16
	g := graph.New()
	for i := graph.NodeID(1); i <= 4*d; i++ {
		g.AddEdge(100, 1000+i)
		if i <= d {
			g.AddEdge(i, 200)
		}
	}
	dl := delta.FromGraph(g)
	blob, err := Codec{}.EncodeDelta(dl)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(id graph.NodeID) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, found, err := (Codec{}).DecodeDeltaState(blob, id); err != nil || !found {
				t.Fatal(found, err)
			}
		})
	}
	if small, big := allocs(200), allocs(100); small != big {
		t.Fatalf("decoding degree %d costs %v allocations, degree %d %v", d, small, 4*d, big)
	}

	decode := func() *graph.NodeState {
		ns, _, err := Codec{}.DecodeDeltaState(blob, 100)
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}
	ns := decode()
	want := ns.Clone()
	ns.Freeze()
	held := graph.New()
	held.PutNode(ns)
	for _, e := range []graph.Event{
		{Kind: graph.SetEdgeAttr, Node: 100, Other: 1001, Key: "w", Value: "2"},
		{Kind: graph.SetEdgeAttr, Node: 100, Other: 1002, Key: "w", Value: "3"},
	} {
		if err := held.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	if !ns.Equal(want) || !decode().Equal(want) || held.Node(100).Equal(want) {
		t.Fatal("an edge attribute write through a graph reached the decoded state")
	}
}
