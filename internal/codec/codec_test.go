package codec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hgs/internal/delta"
	"hgs/internal/graph"
	"hgs/internal/temporal"
)

func randDelta(seed int64, n int) *delta.Delta {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	for i := 0; i < n; i++ {
		u := graph.NodeID(rng.Intn(30))
		v := graph.NodeID(rng.Intn(30))
		switch rng.Intn(5) {
		case 0:
			g.AddNode(u)
		case 1, 2:
			g.AddEdge(u, v)
		case 3:
			g.Apply(graph.Event{Kind: graph.SetNodeAttr, Node: u, Key: "label", Value: string(rune('a' + rng.Intn(5)))})
		case 4:
			g.Apply(graph.Event{Kind: graph.SetEdgeAttr, Node: u, Other: v, Key: "w", Value: "1.5"})
		}
	}
	d := delta.FromGraph(g)
	if rng.Intn(2) == 0 {
		d.MarkDeleted(graph.NodeID(1000 + rng.Intn(5)))
	}
	return d
}

func randEvents(seed int64, n int) []graph.Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]graph.Event, n)
	t := temporal.Time(0)
	for i := range evs {
		t += temporal.Time(rng.Intn(5))
		evs[i] = graph.Event{
			Time:  t,
			Kind:  graph.EventKind(1 + rng.Intn(8)),
			Node:  graph.NodeID(rng.Intn(1000)),
			Other: graph.NodeID(rng.Intn(1000)),
			Key:   []string{"", "k1", "weight"}[rng.Intn(3)],
			Value: []string{"", "x", "3.14"}[rng.Intn(3)],
		}
	}
	return evs
}

func TestDeltaRoundtrip(t *testing.T) {
	for _, c := range []Codec{{}, {Compress: true}} {
		d := randDelta(42, 200)
		blob, err := c.EncodeDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.DecodeDelta(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(d) {
			t.Fatalf("roundtrip mismatch (compress=%v)", c.Compress)
		}
	}
}

func TestDeltaRoundtripProperty(t *testing.T) {
	f := func(seed int64, compress bool) bool {
		c := Codec{Compress: compress}
		d := randDelta(seed, 80)
		blob, err := c.EncodeDelta(d)
		if err != nil {
			return false
		}
		got, err := c.DecodeDelta(blob)
		return err == nil && got.Equal(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEventsRoundtrip(t *testing.T) {
	f := func(seed int64, compress bool) bool {
		c := Codec{Compress: compress}
		evs := randEvents(seed, 150)
		blob, err := c.EncodeEvents(evs)
		if err != nil {
			return false
		}
		got, err := c.DecodeEvents(blob)
		if err != nil || len(got) != len(evs) {
			return false
		}
		for i := range evs {
			if got[i] != evs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNodeStateRoundtrip(t *testing.T) {
	ns := graph.NewNodeState(77)
	ns.Attrs = graph.Attrs{"name": "n77", "community": "A"}
	ns.Edges = map[graph.EdgeKey]*graph.EdgeState{
		{Other: 1, Out: true}:  {Attrs: graph.Attrs{"w": "2"}},
		{Other: 2, Out: false}: {},
	}
	c := Codec{}
	blob, err := c.EncodeNodeState(ns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DecodeNodeState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ns) {
		t.Fatal("node state roundtrip mismatch")
	}
}

// TestStateSizeMatchesEncoding checks StateSize against the length of
// the encoding it sizes, over attributed states with negative ids and
// self-loops.
func TestStateSizeMatchesEncoding(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		d := randDelta(seed, 200)
		for _, ns := range d.Nodes {
			ns = ns.Clone()
			if seed%2 == 1 {
				ns.ID = -ns.ID - 300
			}
			b := getEncBuffer()
			encodeNodeState(b, ns)
			if got, want := StateSize(ns), b.buf.Len(); got != want {
				t.Fatalf("seed %d: StateSize(node %d) = %d, encoding is %d bytes", seed, ns.ID, got, want)
			}
			putEncBuffer(b)
		}
	}
}

func TestCompressionShrinksRepetitiveData(t *testing.T) {
	// A large delta with repetitive attributes should compress well.
	g := graph.New()
	for i := graph.NodeID(0); i < 500; i++ {
		g.AddNode(i)
		g.Apply(graph.Event{Kind: graph.SetNodeAttr, Node: i, Key: "EntityType", Value: "AuthorAuthorAuthor"})
	}
	d := delta.FromGraph(g)
	plain, err := Codec{}.EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := Codec{Compress: true}.EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) >= len(plain) {
		t.Fatalf("compression did not shrink blob: %d >= %d", len(packed), len(plain))
	}
	// Cross-decoding: a plain codec can decode a compressed blob.
	got, err := Codec{}.DecodeDelta(packed)
	if err != nil || !got.Equal(d) {
		t.Fatal("cross-decode of compressed blob failed")
	}
}

func TestCorruptBlobs(t *testing.T) {
	c := Codec{}
	if _, err := c.DecodeDelta(nil); err == nil {
		t.Fatal("nil blob should fail")
	}
	if _, err := c.DecodeDelta([]byte{0xFF, 1, 2}); err == nil {
		t.Fatal("unknown header should fail")
	}
	blob, _ := c.EncodeDelta(randDelta(7, 50))
	if _, err := c.DecodeDelta(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated blob should fail")
	}
	if _, err := c.DecodeEvents([]byte{flagGzip, 0x00}); err == nil {
		t.Fatal("bogus gzip payload should fail")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	d := randDelta(99, 120)
	a, _ := Codec{}.EncodeDelta(d)
	b, _ := Codec{}.EncodeDelta(d.Clone())
	if string(a) != string(b) {
		t.Fatal("encoding is not deterministic")
	}
}
