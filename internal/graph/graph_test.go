package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hgs/internal/temporal"
)

func TestAddRemoveNode(t *testing.T) {
	g := New()
	g.AddNode(1)
	g.AddNode(2)
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", g.NumNodes())
	}
	g.AddNode(1) // idempotent
	if g.NumNodes() != 2 {
		t.Fatalf("AddNode not idempotent")
	}
	if !g.RemoveNode(1) {
		t.Fatal("RemoveNode(1) should report true")
	}
	if g.RemoveNode(1) {
		t.Fatal("RemoveNode(1) twice should report false")
	}
	if g.Has(1) || !g.Has(2) {
		t.Fatal("wrong membership after removal")
	}
}

func TestAddRemoveEdgeMirrors(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	if !g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Fatal("directed edge membership wrong")
	}
	n2 := g.Node(2)
	if _, ok := n2.Edges[EdgeKey{Other: 1, Out: false}]; !ok {
		t.Fatal("mirror entry missing on target")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if !g.RemoveEdge(1, 2) {
		t.Fatal("RemoveEdge should succeed")
	}
	if len(g.Node(1).Edges) != 0 || len(g.Node(2).Edges) != 0 {
		t.Fatal("edges not removed from both endpoints")
	}
}

func TestRemoveNodeCleansIncidentEdges(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(3, 1)
	g.RemoveNode(1)
	if len(g.Node(2).Edges) != 0 || len(g.Node(3).Edges) != 0 {
		t.Fatal("incident edges not cleaned from neighbors")
	}
	if g.NumEdges() != 0 {
		t.Fatal("NumEdges should be 0")
	}
}

func TestApplyEventsRoundtrip(t *testing.T) {
	events := []Event{
		{Time: 1, Kind: AddNode, Node: 1},
		{Time: 2, Kind: AddNode, Node: 2},
		{Time: 3, Kind: AddEdge, Node: 1, Other: 2},
		{Time: 4, Kind: SetNodeAttr, Node: 1, Key: "name", Value: "a"},
		{Time: 5, Kind: SetEdgeAttr, Node: 1, Other: 2, Key: "w", Value: "3"},
		{Time: 6, Kind: AddEdge, Node: 2, Other: 3},
		{Time: 7, Kind: RemoveEdge, Node: 1, Other: 2},
		{Time: 8, Kind: DelNodeAttr, Node: 1, Key: "name"},
	}
	g, err := FromEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 { // node 3 auto-created by AddEdge
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.HasEdge(1, 2) || !g.HasEdge(2, 3) {
		t.Fatal("edge set wrong after replay")
	}
	if _, ok := g.Node(1).Attr("name"); ok {
		t.Fatal("attribute should have been deleted")
	}
}

func TestEdgeAttrSharedAcrossMirrors(t *testing.T) {
	g := New()
	if err := g.Apply(Event{Kind: AddEdge, Node: 1, Other: 2}); err != nil {
		t.Fatal(err)
	}
	if err := g.Apply(Event{Kind: SetEdgeAttr, Node: 1, Other: 2, Key: "w", Value: "9"}); err != nil {
		t.Fatal(err)
	}
	mirror := g.Node(2).Edges[EdgeKey{Other: 1, Out: false}]
	if mirror == nil || mirror.Attrs["w"] != "9" {
		t.Fatal("edge attribute not visible from mirror side")
	}
	if err := g.Apply(Event{Kind: DelEdgeAttr, Node: 1, Other: 2, Key: "w"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := mirror.Attrs["w"]; ok {
		t.Fatal("edge attribute not deleted from mirror side")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.Apply(Event{Kind: SetNodeAttr, Node: 1, Key: "x", Value: "1"})
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone should equal original")
	}
	c.Apply(Event{Kind: SetNodeAttr, Node: 1, Key: "x", Value: "2"})
	c.AddEdge(2, 3)
	if g.Node(1).Attrs["x"] != "1" {
		t.Fatal("mutating clone affected original attrs")
	}
	if g.Has(3) {
		t.Fatal("mutating clone affected original nodes")
	}
	// Mirror sharing must be restored inside the clone.
	c.Apply(Event{Kind: SetEdgeAttr, Node: 1, Other: 2, Key: "w", Value: "5"})
	if c.Node(2).Edges[EdgeKey{Other: 1, Out: false}].Attrs["w"] != "5" {
		t.Fatal("clone lost mirror sharing")
	}
}

func TestSubgraphInduced(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	sub := g.Subgraph([]NodeID{1, 2, 3})
	if sub.NumNodes() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("subgraph = %v, want 3 nodes 2 edges", sub)
	}
	if sub.HasEdge(3, 4) {
		t.Fatal("subgraph contains edge leaving the node set")
	}
}

func TestKHop(t *testing.T) {
	// Path 1-2-3-4-5 plus spur 2-10.
	g := New()
	for _, e := range [][2]NodeID{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {2, 10}} {
		g.AddEdge(e[0], e[1])
	}
	got := g.KHopIDs(1, 2)
	want := []NodeID{1, 2, 3, 10}
	if len(got) != len(want) {
		t.Fatalf("KHopIDs(1,2) = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("KHopIDs(1,2) = %v, want %v", got, want)
		}
	}
	sg := g.KHopSubgraph(1, 1)
	if sg.NumNodes() != 2 || !sg.HasEdge(1, 2) {
		t.Fatalf("KHopSubgraph(1,1) wrong: %v", sg)
	}
}

func TestNodeStateEqual(t *testing.T) {
	a := NewNodeState(1)
	b := NewNodeState(1)
	if !a.Equal(b) {
		t.Fatal("empty states should be equal")
	}
	a.Attrs = Attrs{"k": "v"}
	if a.Equal(b) {
		t.Fatal("attr difference not detected")
	}
	b.Attrs = Attrs{"k": "v"}
	a.Edges = map[EdgeKey]*EdgeState{{Other: 2, Out: true}: {}}
	if a.Equal(b) {
		t.Fatal("edge difference not detected")
	}
	b.Edges = map[EdgeKey]*EdgeState{{Other: 2, Out: true}: {}}
	if !a.Equal(b) {
		t.Fatal("equal states reported unequal")
	}
}

func TestEventFilters(t *testing.T) {
	evs := []Event{
		{Time: 1, Kind: AddNode, Node: 1},
		{Time: 5, Kind: AddEdge, Node: 1, Other: 2},
		{Time: 9, Kind: RemoveNode, Node: 2},
	}
	byNode := FilterEventsByNode(evs, 2)
	if len(byNode) != 2 {
		t.Fatalf("FilterEventsByNode(2) = %v, want AddEdge+RemoveNode", byNode)
	}
}

// randomEvents builds a plausible chronological event stream for property
// tests: structural and attribute events over a small id space.
func randomEvents(rng *rand.Rand, n int) []Event {
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		e := Event{Time: temporal.Time(i)}
		u := NodeID(rng.Intn(20))
		v := NodeID(rng.Intn(20))
		switch rng.Intn(8) {
		case 0:
			e.Kind, e.Node = AddNode, u
		case 1:
			e.Kind, e.Node = RemoveNode, u
		case 2, 3:
			e.Kind, e.Node, e.Other = AddEdge, u, v
		case 4:
			e.Kind, e.Node, e.Other = RemoveEdge, u, v
		case 5:
			e.Kind, e.Node, e.Key, e.Value = SetNodeAttr, u, "k", string(rune('a'+rng.Intn(4)))
		case 6:
			e.Kind, e.Node, e.Other, e.Key, e.Value = SetEdgeAttr, u, v, "w", string(rune('0'+rng.Intn(4)))
		case 7:
			e.Kind, e.Node, e.Key = DelNodeAttr, u, "k"
		}
		evs = append(evs, e)
	}
	return evs
}

func TestPropertyMirrorConsistency(t *testing.T) {
	// Invariant: after any event sequence every Out edge has a matching
	// mirror entry on the other endpoint and vice versa.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := FromEvents(randomEvents(rng, 300))
		if err != nil {
			return false
		}
		consistent := true
		g.Range(func(ns *NodeState) bool {
			for k := range ns.Edges {
				other := g.Node(k.Other)
				if other == nil {
					consistent = false
					return false
				}
				if _, ok := other.Edges[EdgeKey{Other: ns.ID, Out: !k.Out}]; !ok {
					consistent = false
					return false
				}
			}
			return true
		})
		return consistent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := FromEvents(randomEvents(rng, 200))
		if err != nil {
			return false
		}
		return g.Equal(g.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
