package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"testing"

	"hgs"
	"hgs/internal/graph"
)

// refNodeJSON is the reflection-path row the append encoder replaced:
// the reference its bytes are compared against.
func refNodeJSON(ns *hgs.NodeState) NodeJSON {
	row := NodeJSON{ID: ns.ID, Attrs: ns.Attrs}
	if len(ns.Edges) > 0 {
		row.Edges = make([]EdgeJSON, 0, len(ns.Edges))
		for k, es := range ns.Edges {
			var attrs hgs.Attrs
			if es != nil {
				attrs = es.Attrs
			}
			row.Edges = append(row.Edges, EdgeJSON{Other: k.Other, Out: k.Out, Attrs: attrs})
		}
		sort.Slice(row.Edges, func(i, j int) bool {
			if row.Edges[i].Other != row.Edges[j].Other {
				return row.Edges[i].Other < row.Edges[j].Other
			}
			return row.Edges[i].Out && !row.Edges[j].Out
		})
	}
	return row
}

func refGraphJSON(g *hgs.Graph) []NodeJSON {
	rows := make([]NodeJSON, 0, g.NumNodes())
	for _, id := range g.NodeIDs() {
		rows = append(rows, refNodeJSON(g.Node(id)))
	}
	return rows
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// encodeStrings are the strings random states draw from: plain ASCII
// and every class encoding/json escapes or rewrites.
var encodeStrings = []string{
	"", "a", "name", "plain value", "~`!@#$%^*()_+=-[]{}|;:',./?",
	"<b>", "a&b", "x>y", `say "hi"`, `back\slash`, "tab\there", "nl\n",
	"\x00\x01\x1f", "\x7f", "\xff\xfe", "ok\xc3", "\u2028", "\u2029",
	"café", "ключ", "日本語", "emoji 😀", "\ufffd",
}

func randString(rng *rand.Rand) string {
	if rng.Intn(4) > 0 {
		return encodeStrings[rng.Intn(len(encodeStrings))]
	}
	b := make([]byte, rng.Intn(8))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

func randAttrs(rng *rand.Rand) hgs.Attrs {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return hgs.Attrs{}
	}
	a := hgs.Attrs{}
	for i := rng.Intn(5); i >= 0; i-- {
		a[randString(rng)] = randString(rng)
	}
	return a
}

func randState(rng *rand.Rand) *hgs.NodeState {
	id := hgs.NodeID(rng.Int63n(2000) - 1000)
	ns := &hgs.NodeState{ID: id, Attrs: randAttrs(rng)}
	switch rng.Intn(4) {
	case 0:
		return ns
	case 1:
		ns.Edges = map[graph.EdgeKey]*graph.EdgeState{}
		return ns
	}
	ns.Edges = map[graph.EdgeKey]*graph.EdgeState{}
	for i := rng.Intn(8); i >= 0; i-- {
		other := hgs.NodeID(rng.Int63n(40) - 20)
		if rng.Intn(6) == 0 {
			other = id // self-loop
		}
		var es *graph.EdgeState
		switch rng.Intn(3) {
		case 1:
			es = &graph.EdgeState{}
		case 2:
			es = &graph.EdgeState{Attrs: randAttrs(rng)}
		}
		ns.Edges[graph.EdgeKey{Other: other, Out: rng.Intn(2) == 0}] = es
		if rng.Intn(4) == 0 { // both directions of one pair
			ns.Edges[graph.EdgeKey{Other: other, Out: rng.Intn(2) == 0}] = es
		}
	}
	return ns
}

// TestAppendNodeMatchesEncodingJSON checks the append encoder against
// encoding/json on seeded random states: escapable and non-ASCII
// strings, invalid UTF-8, nil and empty attrs, nil and empty edge
// states, self-loops in both directions and negative ids — and that the
// scratch carries nothing from one row into the next.
func TestAppendNodeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var sc encodeScratch
	var buf []byte
	for i := 0; i < 20000; i++ {
		ns := randState(rng)
		buf = appendNode(buf[:0], ns, &sc)
		if want := mustMarshal(t, refNodeJSON(ns)); !bytes.Equal(buf, want) {
			t.Fatalf("state %d:\n got %s\nwant %s", i, buf, want)
		}
	}
	g := graph.New()
	for i := 0; i < 50; i++ {
		g.PutNode(randState(rng))
	}
	if got, want := appendGraph(nil, g, &sc), mustMarshal(t, refGraphJSON(g)); !bytes.Equal(got, want) {
		t.Fatalf("graph:\n got %s\nwant %s", got, want)
	}
	if got := appendGraph(nil, graph.New(), &sc); string(got) != "[]" {
		t.Fatalf("empty graph: got %s", got)
	}
}

// FuzzAppendNode compares the append encoder with encoding/json on a
// state built from fuzzed ids and strings: a node attr, an edge attr
// and an edge to other in the directions the flags pick.
func FuzzAppendNode(f *testing.F) {
	f.Add(int64(1), int64(2), "k", "v", "ek", "ev", uint8(7))
	f.Add(int64(-5), int64(-5), "<&>", "\u2028\"\\", "\xff", "\x00", uint8(3))
	f.Add(int64(0), int64(9), "", "", "é", "\u2029", uint8(255))
	f.Fuzz(func(t *testing.T, id, other int64, key, val, ekey, eval string, flags uint8) {
		ns := &hgs.NodeState{ID: hgs.NodeID(id)}
		if flags&1 != 0 {
			ns.Attrs = hgs.Attrs{key: val, ekey: eval}
		}
		if flags&2 != 0 {
			ns.Edges = map[graph.EdgeKey]*graph.EdgeState{}
			var es *graph.EdgeState
			if flags&4 != 0 {
				es = &graph.EdgeState{Attrs: hgs.Attrs{ekey: eval, val: key}}
			}
			if flags&8 == 0 {
				ns.Edges[graph.EdgeKey{Other: hgs.NodeID(other), Out: true}] = es
			}
			if flags&16 == 0 {
				ns.Edges[graph.EdgeKey{Other: hgs.NodeID(other)}] = es
			}
			if flags&32 != 0 {
				ns.Edges[graph.EdgeKey{Other: hgs.NodeID(id), Out: flags&64 != 0}] = nil
			}
		}
		got := appendNode(nil, ns, &encodeScratch{})
		if want := mustMarshal(t, refNodeJSON(ns)); !bytes.Equal(got, want) {
			t.Fatalf("\n got %s\nwant %s", got, want)
		}
	})
}
