package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
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

func TestDropNodeLeavesNeighbors(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(3, 1)
	if !g.DropNode(1) || g.Has(1) || g.DropNode(1) {
		t.Fatal("DropNode did not delete the node once")
	}
	if !g.Node(2).HasEdgeTo(1) || !g.Node(3).HasEdgeTo(1) {
		t.Fatal("DropNode removed the neighbors' mirror entries")
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

// filterEventsByNode returns the events touching node id, in the original
// order.
func filterEventsByNode(events []Event, id NodeID) []Event {
	var out []Event
	for _, e := range events {
		if e.Touches(id) {
			out = append(out, e)
		}
	}
	return out
}

func TestEventFilters(t *testing.T) {
	evs := []Event{
		{Time: 1, Kind: AddNode, Node: 1},
		{Time: 5, Kind: AddEdge, Node: 1, Other: 2},
		{Time: 9, Kind: RemoveNode, Node: 2},
	}
	byNode := filterEventsByNode(evs, 2)
	if len(byNode) != 2 {
		t.Fatalf("filterEventsByNode(2) = %v, want AddEdge+RemoveNode", byNode)
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

// TestCloneKeepsOneSidedEdges clones a graph that knows edges from one
// side only, as a partially materialized graph does: the clone must be
// an exact copy, with no mirror entry added.
func TestCloneKeepsOneSidedEdges(t *testing.T) {
	g := New()
	g.PutNode(&NodeState{ID: 1, Edges: map[EdgeKey]*EdgeState{{Other: 2, Out: true}: {}, {Other: 3, Out: false}: {}}})
	g.PutNode(NewNodeState(2)) // no edge map at all
	g.PutNode(&NodeState{ID: 3, Edges: map[EdgeKey]*EdgeState{{Other: 4, Out: true}: {}}})
	g.PutNode(&NodeState{ID: 4, Edges: map[EdgeKey]*EdgeState{{Other: 1, Out: true}: {}}})
	if c := g.Clone(); !c.Equal(g) {
		t.Fatal("clone differs from the original")
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

// frozenFixture returns the frozen states of a small graph — a hub with
// attributes and an attributed edge, a self-loop, and an edge known from
// one side only — together with their pre-freeze deep copies.
func frozenFixture() (frozen, want map[NodeID]*NodeState) {
	g := New()
	for _, e := range []Event{
		{Kind: AddEdge, Node: 1, Other: 2},
		{Kind: AddEdge, Node: 2, Other: 3},
		{Kind: AddEdge, Node: 3, Other: 1},
		{Kind: AddEdge, Node: 1, Other: 4},
		{Kind: AddEdge, Node: 4, Other: 5},
		{Kind: AddEdge, Node: 5, Other: 5},
		{Kind: SetNodeAttr, Node: 1, Key: "k", Value: "a"},
		{Kind: SetNodeAttr, Node: 2, Key: "k", Value: "b"},
		{Kind: SetEdgeAttr, Node: 1, Other: 2, Key: "w", Value: "1"},
	} {
		if err := g.Apply(e); err != nil {
			panic(err)
		}
	}
	frozen, want = make(map[NodeID]*NodeState), make(map[NodeID]*NodeState)
	for _, id := range g.NodeIDs() {
		frozen[id] = g.Node(id).Clone() // separate mirror states, as decoded
	}
	frozen[6] = &NodeState{ID: 6, Edges: map[EdgeKey]*EdgeState{{Other: 1, Out: true}: {}}}
	for id, ns := range frozen {
		want[id] = ns.Clone()
		ns.Freeze()
	}
	return frozen, want
}

// mutators returns one change through each Graph mutator, named, for
// frozenFixture's node ids. A failed Apply reports with t.Error, so the
// changes may run off the test's goroutine.
func mutators(t *testing.T) map[string]func(*Graph) {
	apply := func(e Event) func(*Graph) {
		return func(g *Graph) {
			if err := g.Apply(e); err != nil {
				t.Error(err)
			}
		}
	}
	applySide := func(e Event, id NodeID) func(*Graph) {
		return func(g *Graph) {
			if err := g.ApplySide(e, id); err != nil {
				t.Error(err)
			}
		}
	}
	return map[string]func(*Graph){
		"AddNode":         func(g *Graph) { g.AddNode(1).Attrs["k"] = "z" },
		"AddEdge":         func(g *Graph) { g.AddEdge(2, 5) },
		"RemoveNode hub":  func(g *Graph) { g.RemoveNode(1) },
		"RemoveEdge":      func(g *Graph) { g.RemoveEdge(1, 2) },
		"RemoveEdge loop": func(g *Graph) { g.RemoveEdge(5, 5) },
		"Symmetrize":      func(g *Graph) { g.Symmetrize() },
		"Symmetrize then SetEdgeAttr": func(g *Graph) {
			// Node 1 owns its edge states once an edge attribute changed;
			// the mirror Symmetrize gives it is node 6's frozen one.
			apply(Event{Kind: SetEdgeAttr, Node: 1, Other: 2, Key: "w", Value: "2"})(g)
			g.Symmetrize()
			apply(Event{Kind: SetEdgeAttr, Node: 6, Other: 1, Key: "w", Value: "3"})(g)
		},
		"Apply AddNode":                 apply(Event{Kind: AddNode, Node: 7}),
		"Apply RemoveNode":              apply(Event{Kind: RemoveNode, Node: 2}),
		"Apply AddEdge":                 apply(Event{Kind: AddEdge, Node: 3, Other: 4}),
		"Apply RemoveEdge":              apply(Event{Kind: RemoveEdge, Node: 2, Other: 3}),
		"Apply SetNodeAttr":             apply(Event{Kind: SetNodeAttr, Node: 3, Key: "k", Value: "c"}),
		"Apply DelNodeAttr":             apply(Event{Kind: DelNodeAttr, Node: 1, Key: "k"}),
		"Apply SetEdgeAttr":             apply(Event{Kind: SetEdgeAttr, Node: 1, Other: 2, Key: "w", Value: "2"}),
		"Apply SetEdgeAttr+":            apply(Event{Kind: SetEdgeAttr, Node: 4, Other: 5, Key: "w", Value: "3"}),
		"Apply DelEdgeAttr":             apply(Event{Kind: DelEdgeAttr, Node: 1, Other: 2, Key: "w"}),
		"ApplySide AddEdge":             applySide(Event{Kind: AddEdge, Node: 2, Other: 5}, 2),
		"ApplySide RemoveEdge in-side":  applySide(Event{Kind: RemoveEdge, Node: 1, Other: 2}, 2),
		"ApplySide SetEdgeAttr":         applySide(Event{Kind: SetEdgeAttr, Node: 1, Other: 2, Key: "w", Value: "2"}, 1),
		"ApplySide SetEdgeAttr+":        applySide(Event{Kind: SetEdgeAttr, Node: 4, Other: 5, Key: "w", Value: "3"}, 5),
		"ApplySide DelEdgeAttr in-side": applySide(Event{Kind: DelEdgeAttr, Node: 1, Other: 2, Key: "w"}, 2),
		"ApplySide self-loop":           applySide(Event{Kind: SetEdgeAttr, Node: 5, Other: 5, Key: "w", Value: "4"}, 5),
	}
}

func TestFrozenStatesSurviveMutators(t *testing.T) {
	for name, mutate := range mutators(t) {
		t.Run(name, func(t *testing.T) {
			frozen, want := frozenFixture()
			g, private := New(), New()
			for id, ns := range frozen {
				g.PutNode(ns)
				private.PutNode(want[id].Clone())
			}
			mutate(g)
			mutate(private)
			for id, ns := range frozen {
				if !ns.Equal(want[id]) {
					t.Fatalf("frozen state %d changed: %v", id, ns)
				}
			}
			if !g.Equal(private) {
				t.Fatal("mutating shared frozen states differs from mutating private ones")
			}
			if g.Equal(graphOf(want)) {
				t.Fatal("the graph's view did not change")
			}
		})
	}
}

// TestSubgraphSharesFrozenStates checks Subgraph's sharing rule on a
// graph of frozenFixture's states, node 4's replaced by a private copy:
// frozen states with every edge inside come back by pointer, frozen
// states with edges to outside as frozen copies holding only the inside
// edges, sharing attributes and edge states, and private states as deep
// copies. The answer equals the induce of private copies of every
// state, and no mutator on it changes the graph it came from, even when
// goroutines induce and write at once.
func TestSubgraphSharesFrozenStates(t *testing.T) {
	ids := []NodeID{1, 2, 4, 5, 6}
	fixture := func() (g, private *Graph) {
		frozen, want := frozenFixture()
		g, private = graphOf(frozen), New()
		g.PutNode(want[4].Clone())
		for _, ns := range want {
			private.PutNode(ns.Clone())
		}
		return g, private
	}
	g, private := fixture()
	sub := g.Subgraph(ids)
	if !sub.Equal(private.Subgraph(ids)) {
		t.Fatalf("induce %v differs from the private induce", sub)
	}
	for _, id := range []NodeID{5, 6} {
		if sub.Node(id) != g.Node(id) {
			t.Fatalf("frozen node %d has every edge inside but was copied", id)
		}
	}
	for _, id := range []NodeID{1, 2} {
		got, of := sub.Node(id), g.Node(id)
		if got == of || !got.frozen || len(got.Edges) >= len(of.Edges) {
			t.Fatalf("frozen node %d with edges to outside: got %v (frozen %v), want a frozen copy with fewer edges than %v", id, got, got.frozen, of)
		}
		for k, es := range got.Edges {
			if of.Edges[k] != es {
				t.Fatalf("frozen copy of %d does not share edge state %v", id, k)
			}
		}
		if len(of.Attrs) == 0 || reflect.ValueOf(got.Attrs).UnsafePointer() != reflect.ValueOf(of.Attrs).UnsafePointer() {
			t.Fatalf("frozen copy of %d does not share its attributes", id)
		}
	}
	if got, of := sub.Node(4), g.Node(4); got == of || got.frozen || got.Edges[EdgeKey{Other: 1}] == of.Edges[EdgeKey{Other: 1}] {
		t.Fatal("a private state must come back as a deep copy")
	}

	for name, mutate := range mutators(t) {
		t.Run(name, func(t *testing.T) {
			g, private := fixture()
			before := g.Clone()
			sub, want := g.Subgraph(ids), private.Subgraph(ids)
			mutate(sub)
			mutate(want)
			if !g.Equal(before) {
				t.Fatal("writing the induce changed the graph it came from")
			}
			if !sub.Equal(want) {
				t.Fatal("writing the sharing induce differs from writing a private one")
			}
		})
	}

	g, _ = fixture()
	before := g.Clone()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, mutate := range mutators(t) {
				mutate(g.Subgraph(ids))
			}
		}()
	}
	wg.Wait()
	if !g.Equal(before) {
		t.Fatal("concurrent induces and their writes changed the graph")
	}
}

func graphOf(states map[NodeID]*NodeState) *Graph {
	g := New()
	for _, ns := range states {
		g.PutNode(ns)
	}
	return g
}

func TestFrozenStateCopyIsShallow(t *testing.T) {
	frozen, _ := frozenFixture()
	g := graphOf(frozen)
	g.Apply(Event{Kind: SetNodeAttr, Node: 1, Key: "k", Value: "z"})
	copied, k := g.Node(1), EdgeKey{Other: 2, Out: true}
	if copied == frozen[1] || copied.Edges[k] != frozen[1].Edges[k] {
		t.Fatal("a node write must copy the node but keep sharing its edge states")
	}
	g.Apply(Event{Kind: SetEdgeAttr, Node: 1, Other: 2, Key: "w", Value: "2"})
	if g.Node(1) != copied || g.Node(1).Edges[k] == frozen[1].Edges[k] {
		t.Fatal("an edge write must copy the edge state into the already-copied node")
	}
}

func TestPropertyFrozenReplayMatchesPrivate(t *testing.T) {
	// Replaying events onto a graph of frozen states equals replaying them
	// onto private copies, and leaves the frozen states as they were.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base, err := FromEvents(randomEvents(rng, 200))
		if err != nil {
			return false
		}
		// The frozen states share their mirror edge states (Clone
		// restores the sharing), like states after Symmetrize.
		var states []*NodeState
		base.Clone().Range(func(ns *NodeState) bool {
			ns.Freeze()
			states = append(states, ns)
			return true
		})
		shared, private := New(), base.Clone()
		for _, ns := range states {
			shared.PutNode(ns)
		}
		tail := randomEvents(rng, 100)
		for i := range tail {
			if tail[i].Kind == SetEdgeAttr && rng.Intn(2) == 0 {
				tail[i].Kind = DelEdgeAttr
			}
		}
		if shared.ApplyAll(tail) != nil || private.ApplyAll(tail) != nil {
			return false
		}
		shared.Symmetrize()
		private.Symmetrize()
		for _, ns := range states {
			if !ns.Equal(base.Node(ns.ID)) {
				return false
			}
		}
		return shared.Equal(private)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// applyBothSides replays e the way a partition owning both of its
// endpoints does: ApplySide once per endpoint, once for a node event or
// a self-loop.
func applyBothSides(g *Graph, e Event) error {
	if err := g.ApplySide(e, e.Node); err != nil || !e.Kind.IsEdge() || e.Other == e.Node {
		return err
	}
	return g.ApplySide(e, e.Other)
}

func TestPropertyApplySideMatchesApply(t *testing.T) {
	// ApplySide on both endpoints builds the graph Apply builds (the two
	// sides of an edge get their own edge states, which Equal does not
	// see), from empty and over frozen states, which stay as they were.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		evs := randomEvents(rng, 300)
		for i := range evs {
			if evs[i].Kind == SetEdgeAttr && rng.Intn(2) == 0 {
				evs[i].Kind = DelEdgeAttr
			}
		}
		want, err := FromEvents(evs)
		if err != nil {
			return false
		}
		fresh := New()
		for _, e := range evs {
			if applyBothSides(fresh, e) != nil {
				return false
			}
		}
		base, err := FromEvents(evs[:150])
		if err != nil {
			return false
		}
		shared := New()
		var frozen, pre []*NodeState
		base.Range(func(ns *NodeState) bool {
			pre = append(pre, ns.Clone())
			ns.Freeze()
			frozen = append(frozen, ns)
			shared.PutNode(ns)
			return true
		})
		for _, e := range evs[150:] {
			if applyBothSides(shared, e) != nil {
				return false
			}
		}
		for i, ns := range frozen {
			if !ns.Equal(pre[i]) {
				return false
			}
		}
		return fresh.Equal(want) && shared.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAddEdgeKeepsMirrorAttrs replays onto a graph that holds only v's
// side of u->v, as a replay of v's own history does: a redundant AddEdge,
// and the AddEdge inside Apply(SetEdgeAttr), must keep v's edge
// attributes, also when v's state is frozen.
func TestAddEdgeKeepsMirrorAttrs(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		g := New()
		if err := g.ApplySide(Event{Kind: SetEdgeAttr, Node: 1, Other: 2, Key: "w", Value: "x"}, 2); err != nil {
			t.Fatal(err)
		}
		if frozen {
			g.Node(2).Freeze()
		}
		shared := g.Node(2)
		if err := g.Apply(Event{Kind: AddEdge, Node: 1, Other: 2}); err != nil {
			t.Fatal(err)
		}
		if err := g.Apply(Event{Kind: SetEdgeAttr, Node: 1, Other: 2, Key: "z", Value: "y"}); err != nil {
			t.Fatal(err)
		}
		want := Attrs{"w": "x", "z": "y"}
		if got := g.Node(2).Edge(EdgeKey{Other: 1, Out: false}).Attrs; !got.Equal(want) {
			t.Fatalf("frozen=%v: v's side has %v, want %v", frozen, got, want)
		}
		if got := g.Node(1).Edge(EdgeKey{Other: 2, Out: true}).Attrs; !got.Equal(want) {
			t.Fatalf("frozen=%v: u's side has %v, want %v", frozen, got, want)
		}
		if frozen && !shared.Edge(EdgeKey{Other: 1, Out: false}).Attrs.Equal(Attrs{"w": "x"}) {
			t.Fatal("the replay wrote a frozen edge state")
		}
	}
}

func TestApplySideWritesOneSide(t *testing.T) {
	g := New()
	for _, e := range []Event{
		{Kind: AddEdge, Node: 1, Other: 2},
		{Kind: SetEdgeAttr, Node: 1, Other: 3, Key: "w", Value: "1"},
		{Kind: SetEdgeAttr, Node: 4, Other: 1, Key: "w", Value: "2"},
	} {
		if err := g.ApplySide(e, 1); err != nil {
			t.Fatal(err)
		}
	}
	if g.NumNodes() != 1 {
		t.Fatalf("one-sided replay created other endpoints: %v", g.NodeIDs())
	}
	n1 := g.Node(1)
	if n1.Edge(EdgeKey{Other: 2, Out: true}) == nil || n1.Edge(EdgeKey{Other: 3, Out: true}).Attrs["w"] != "1" ||
		n1.Edge(EdgeKey{Other: 4, Out: false}).Attrs["w"] != "2" {
		t.Fatalf("node 1's side is wrong: %v", n1.Edges)
	}

	// Both sides in one graph: each side keeps its own edge state, and
	// removing one side leaves the other.
	if err := g.ApplySide(Event{Kind: AddEdge, Node: 1, Other: 2}, 2); err != nil {
		t.Fatal(err)
	}
	if g.Node(2).Edge(EdgeKey{Other: 1, Out: false}) == n1.Edge(EdgeKey{Other: 2, Out: true}) {
		t.Fatal("the two sides of an edge share one edge state")
	}
	if err := g.ApplySide(Event{Kind: RemoveEdge, Node: 1, Other: 2}, 1); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(1, 2) || g.Node(2).Edge(EdgeKey{Other: 1, Out: false}) == nil {
		t.Fatal("RemoveEdge on node 1's side must leave node 2's side")
	}
	if err := g.ApplySide(Event{Kind: AddEdge, Node: 1, Other: 2}, 3); err == nil {
		t.Fatal("ApplySide for a node that is not an endpoint must fail")
	}
}

// TestDisjointUnion unions graphs of ids {1, 2}, none and {3, 4}: the
// union holds their states by pointer, a new id goes to its own shard,
// and a single graph comes back as is.
func TestDisjointUnion(t *testing.T) {
	a, err := FromEvents([]Event{{Kind: AddEdge, Node: 1, Other: 2}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromEvents([]Event{{Kind: AddNode, Node: 3}, {Kind: SetNodeAttr, Node: 4, Key: "k", Value: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	of := func(id NodeID) int {
		switch {
		case id == 1 || id == 2:
			return 0
		case id == 3 || id == 4:
			return 2
		}
		return 1
	}
	want := a.Clone()
	b.Range(func(ns *NodeState) bool {
		want.PutNode(ns.Clone())
		return true
	})
	empty := New()
	u := DisjointUnion(of, a, empty, b)
	if !u.Equal(want) || u.Node(3) != b.Node(3) {
		t.Fatal("DisjointUnion must hold every state of its graphs, by pointer")
	}
	u.AddEdge(5, 1)
	if !empty.Has(5) || !u.HasEdge(5, 1) || u.NumNodes() != 5 {
		t.Fatal("a node new to the union must go to the shard of its id")
	}
	if DisjointUnion(of, a) != a {
		t.Fatal("DisjointUnion of one graph must return it")
	}
}

// splitGraph returns g's states, cloned, in parts by of.
func splitGraph(g *Graph, of func(NodeID) int, parts int) []*Graph {
	out := make([]*Graph, parts)
	for i := range out {
		out[i] = New()
	}
	g.Range(func(ns *NodeState) bool {
		out[of(ns.ID)].PutNode(ns.Clone())
		return true
	})
	return out
}

// TestShardedGraphMatchesSingleMap runs seeded random op sequences on a
// single-map graph and on the same states split by of and re-unioned,
// and requires the two to agree after every op: every method must reach
// a node through the shard of its id, and RemoveNode's mirror deletions
// must reach neighbors in other shards.
func TestShardedGraphMatchesSingleMap(t *testing.T) {
	const space, shards = 24, 3
	of := func(id NodeID) int { return int(id) % shards }
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := New()
		for n := NodeID(0); n < space; n++ {
			if rng.Intn(4) != 0 {
				a.PutNode(randomState(rng, n, space))
			}
		}
		b := DisjointUnion(of, splitGraph(a, of, shards)...)
		id := func() NodeID { return NodeID(rng.Intn(space)) }
		for step := 0; step < 300; step++ {
			var op string
			switch r := rng.Intn(12); r {
			case 0:
				n := id()
				op = fmt.Sprintf("AddNode %d", n)
				a.AddNode(n)
				b.AddNode(n)
			case 1:
				ns := randomState(rng, id(), space)
				op = fmt.Sprintf("PutNode %v", ns)
				if rng.Intn(2) == 0 {
					ns.Freeze()
					op += " frozen"
					a.PutNode(ns)
					b.PutNode(ns)
				} else {
					a.PutNode(ns)
					b.PutNode(ns.Clone())
				}
			case 2:
				n := id()
				op = fmt.Sprintf("DropNode %d", n)
				a.DropNode(n)
				b.DropNode(n)
			case 3:
				u, v := id(), id()
				op = fmt.Sprintf("AddEdge %d %d", u, v)
				a.AddEdge(u, v)
				b.AddEdge(u, v)
			case 4:
				u, v := id(), id()
				op = fmt.Sprintf("RemoveEdge %d %d", u, v)
				a.RemoveEdge(u, v)
				b.RemoveEdge(u, v)
			case 5:
				e := Event{Kind: []EventKind{AddEdge, RemoveEdge, SetEdgeAttr, DelEdgeAttr}[rng.Intn(4)], Node: id(), Other: id(), Key: "k", Value: "v"}
				side := e.Node
				if rng.Intn(2) == 0 {
					side = e.Other
				}
				op = fmt.Sprintf("ApplySide %v on %d", e, side)
				if err := a.ApplySide(e, side); err != nil {
					t.Fatal(err)
				}
				if err := b.ApplySide(e, side); err != nil {
					t.Fatal(err)
				}
			case 6:
				e := Event{Kind: SetNodeAttr, Node: id(), Key: "k", Value: fmt.Sprint(step)}
				if rng.Intn(2) == 0 {
					e = Event{Kind: SetEdgeAttr, Node: id(), Other: id(), Key: "k", Value: fmt.Sprint(step)}
				}
				op = "Apply " + e.String()
				if err := a.Apply(e); err != nil {
					t.Fatal(err)
				}
				if err := b.Apply(e); err != nil {
					t.Fatal(err)
				}
			case 7:
				op = "Clone"
				a, b = a.Clone(), b.Clone()
				if b.of == nil || len(b.shards) != shards {
					t.Fatalf("seed %d step %d: Clone dropped the shards", seed, step)
				}
			case 8:
				var ids []NodeID
				for n := NodeID(0); n < space; n++ {
					if rng.Intn(2) == 0 {
						ids = append(ids, n)
					}
				}
				op = fmt.Sprintf("Subgraph %v", ids)
				if !a.Subgraph(ids).Equal(b.Subgraph(ids)) {
					t.Fatalf("seed %d step %d: %s differs", seed, step, op)
				}
			case 9:
				op = "Symmetrize"
				a.Symmetrize()
				b.Symmetrize()
			default:
				// The node with the most neighbors in other shards.
				hub, most := id(), -1
				a.Range(func(ns *NodeState) bool {
					n := 0
					for _, nb := range ns.Neighbors() {
						if of(nb) != of(ns.ID) && a.Has(nb) {
							n++
						}
					}
					if n > most || (n == most && ns.ID < hub) {
						hub, most = ns.ID, n
					}
					return true
				})
				op = fmt.Sprintf("RemoveNode %d (%d neighbors in other shards)", hub, most)
				a.RemoveNode(hub)
				b.RemoveNode(hub)
			}
			if !a.Equal(b) || !b.Equal(a) {
				t.Fatalf("seed %d step %d, after %s: the sharded graph differs", seed, step, op)
			}
			if !slices.Equal(a.NodeIDs(), b.NodeIDs()) || a.NumEdges() != b.NumEdges() || a.Density() != b.Density() {
				t.Fatalf("seed %d step %d, after %s: NodeIDs, NumEdges or Density differ", seed, step, op)
			}
			for n := NodeID(0); n < space; n++ {
				if !slices.Equal(a.Neighbors(n), b.Neighbors(n)) {
					t.Fatalf("seed %d step %d, after %s: neighbors of %d differ", seed, step, op, n)
				}
			}
		}
	}
}

// unionParts returns parts graphs of n nodes each, node id in part
// id%parts, with edges to nodes of other parts.
func unionParts(parts, n int) []*Graph {
	g := New()
	for id := NodeID(0); id < NodeID(parts*n); id++ {
		g.AddEdge(id, (id*7+1)%NodeID(parts*n))
	}
	return splitGraph(g, func(id NodeID) int { return int(id) % parts }, parts)
}

// TestDisjointUnionAdopts pins the combine at O(parts): a union of four
// 5,000-node parts allocates a small constant and copies no state.
func TestDisjointUnionAdopts(t *testing.T) {
	parts := unionParts(4, 5000)
	of := func(id NodeID) int { return int(id) % len(parts) }
	var u *Graph
	if allocs := testing.AllocsPerRun(20, func() { u = DisjointUnion(of, parts...) }); allocs > 3 {
		t.Fatalf("DisjointUnion of 4 x 5,000 nodes: %.0f allocs, want at most 3", allocs)
	}
	if u.NumNodes() != 20000 {
		t.Fatalf("union holds %d nodes, want 20000", u.NumNodes())
	}
	for i, p := range parts {
		p.Range(func(ns *NodeState) bool {
			if u.Node(ns.ID) != ns {
				t.Fatalf("node %d of part %d was copied", ns.ID, i)
			}
			return true
		})
	}
}

// TestDisjointUnionOfPartsWrittenAgain pins the rule a replay per
// partition relies on: once nobody reads a union, its parts may be
// written again, and a new union of them answers like one graph of the
// parts as they are then (Equal, NumNodes, Density). It also requires a
// union of counted parts to know its pair count before any Density on
// it, whether the parts were counted empty or full: the parts' mutators
// keep their counts, and the union sums them.
func TestDisjointUnionOfPartsWrittenAgain(t *testing.T) {
	const space, nparts = 40, 4
	of := func(id NodeID) int { return int(id) % nparts }
	// single copies the parts' states into one single-map graph.
	single := func(parts []*Graph) *Graph {
		g := New()
		for _, p := range parts {
			p.Range(func(ns *NodeState) bool {
				g.PutNode(ns.Clone())
				return true
			})
		}
		return g
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		countEmpty := seed%2 == 1
		parts := make([]*Graph, nparts)
		for i := range parts {
			parts[i] = New()
			if countEmpty {
				parts[i].Density()
			}
		}
		for round := 0; round < 6; round++ {
			// Each part is written at its own ids only, as a replay task
			// per partition writes it.
			for i, p := range parts {
				own := func() NodeID { return NodeID(rng.Intn(space/nparts)*nparts + i) }
				for step := 0; step < 25; step++ {
					id, other := own(), NodeID(rng.Intn(space))
					switch rng.Intn(6) {
					case 0:
						ns := randomState(rng, id, space)
						if rng.Intn(2) == 0 {
							ns.Freeze()
						}
						p.PutNode(ns)
					case 1:
						e := Event{Kind: []EventKind{AddEdge, RemoveEdge, SetEdgeAttr, DelEdgeAttr}[rng.Intn(4)], Node: id, Other: other, Key: "k", Value: fmt.Sprint(step)}
						if rng.Intn(2) == 0 {
							e.Node, e.Other = other, id
						}
						if err := p.ApplySide(e, id); err != nil {
							t.Fatal(err)
						}
					case 2:
						p.AddEdge(id, own())
					case 3:
						p.Apply(Event{Kind: SetNodeAttr, Node: id, Key: "k", Value: fmt.Sprint(step)})
					case 4:
						p.RemoveNode(id)
					default:
						p.DropNode(id)
					}
				}
				if !countEmpty && round == 0 {
					p.Density()
				}
			}
			u := DisjointUnion(of, parts...)
			if u.sides.Load() == 0 {
				t.Fatalf("seed %d round %d: a union of counted parts does not know its pair count", seed, round)
			}
			one := single(parts)
			if !u.Equal(one) || !one.Equal(u) || u.NumNodes() != one.NumNodes() {
				t.Fatalf("seed %d round %d: union %v, parts as one graph %v", seed, round, u, one)
			}
			if u.Density() != one.Density() {
				t.Fatalf("seed %d round %d: union density %v, parts as one graph %v", seed, round, u.Density(), one.Density())
			}
		}
	}
}

// BenchmarkDisjointUnion measures a snapshot's combine at the benchmark's
// snapshot size: four parts of 3,750 nodes.
func BenchmarkDisjointUnion(b *testing.B) {
	parts := unionParts(4, 3750)
	of := func(id NodeID) int { return int(id) % len(parts) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		unionSink = DisjointUnion(of, parts...)
	}
}

var unionSink *Graph
