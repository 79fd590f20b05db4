package delta

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hgs/internal/graph"
	"hgs/internal/temporal"
)

// randGraph replays a random event stream into a graph.
func randGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	for i := 0; i < n; i++ {
		u := graph.NodeID(rng.Intn(15))
		v := graph.NodeID(rng.Intn(15))
		switch rng.Intn(6) {
		case 0:
			g.AddNode(u)
		case 1:
			g.RemoveNode(u)
		case 2, 3:
			g.AddEdge(u, v)
		case 4:
			g.RemoveEdge(u, v)
		case 5:
			g.Apply(graph.Event{Kind: graph.SetNodeAttr, Node: u, Key: "k", Value: string(rune('a' + rng.Intn(3)))})
		}
	}
	return g
}

func TestSumIdentity(t *testing.T) {
	d := FromGraph(randGraph(1, 50))
	got := d.Clone().Sum(New())
	if !got.Equal(d) {
		t.Fatal("∆ + φ != ∆")
	}
}

func TestDiffSelfIsEmpty(t *testing.T) {
	d := FromGraph(randGraph(2, 50))
	if !Diff(d, d).Empty() {
		t.Fatal("∆ − ∆ != φ")
	}
	if !Diff(New(), d).Empty() {
		t.Fatal("φ − ∆ != φ")
	}
	if !Diff(d, New()).Equal(d) {
		t.Fatal("∆ − φ != ∆")
	}
}

func TestIntersectWithEmpty(t *testing.T) {
	d := FromGraph(randGraph(3, 50))
	if !Intersect(d, New()).Empty() {
		t.Fatal("∆ ∩ φ != φ")
	}
	if !Intersect(d, d).Equal(d) {
		t.Fatal("∆ ∩ ∆ != ∆")
	}
}

func TestSumAssociative(t *testing.T) {
	f := func(s1, s2, s3 int64) bool {
		a := FromGraph(randGraph(s1, 40))
		b := FromGraph(randGraph(s2, 40))
		c := FromGraph(randGraph(s3, 40))
		left := a.Clone().Sum(b).Sum(c)
		right := a.Clone().Sum(b.Clone().Sum(c))
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestIntersectionCommutative(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a := FromGraph(randGraph(s1, 40))
		b := FromGraph(randGraph(s2, 40))
		return Intersect(a, b).Equal(Intersect(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestHierarchicalReconstruction(t *testing.T) {
	// The DeltaGraph invariant (paper §4.2): with parent = ∩ children and
	// stored derived deltas child − parent, each child is reconstructed as
	// parent + (child − parent).
	f := func(s1, s2, s3 int64) bool {
		children := []*Delta{
			FromGraph(randGraph(s1, 60)),
			FromGraph(randGraph(s2, 60)),
			FromGraph(randGraph(s3, 60)),
		}
		parent := IntersectAll(children)
		for _, child := range children {
			derived := Diff(child, parent)
			if !parent.Clone().Sum(derived).Equal(child) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMarkDeletedAndSum(t *testing.T) {
	g := graph.New()
	g.AddEdge(1, 2)
	base := FromGraph(g)
	del := New()
	del.MarkDeleted(1)
	got := base.Clone().Sum(del).Materialize()
	if got.Has(1) {
		t.Fatal("tombstone did not delete node")
	}
	// Materialize applies tombstones only via ApplyTo; check ApplyTo too.
	g2 := g.Clone()
	del.ApplyTo(g2)
	if g2.Has(1) || len(g2.Node(2).Edges) != 0 {
		t.Fatal("ApplyTo tombstone did not cascade edge removal")
	}
}

func TestSize(t *testing.T) {
	g := graph.New()
	g.AddEdge(1, 2)
	g.AddNode(3)
	d := FromGraph(g)
	// sizes: node1 (1+1 edge) + node2 (1+1 mirror) + node3 (1) = 5
	if d.Size() != 5 {
		t.Fatalf("Size = %d, want 5", d.Size())
	}
}

func TestMaterializeMatchesSource(t *testing.T) {
	g := randGraph(11, 100)
	if !FromGraph(g).Materialize().Equal(g) {
		t.Fatal("FromGraph → Materialize is not identity")
	}
}

func TestEventlistEquivalentToStateDelta(t *testing.T) {
	// Replaying an eventlist over a snapshot equals materializing the later
	// snapshot — the Log vs Copy equivalence that all indexes rely on.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var evs []graph.Event
		for i := 0; i < 120; i++ {
			u := graph.NodeID(rng.Intn(12))
			v := graph.NodeID(rng.Intn(12))
			kind := []graph.EventKind{graph.AddNode, graph.AddEdge, graph.RemoveEdge, graph.RemoveNode, graph.SetNodeAttr}[rng.Intn(5)]
			evs = append(evs, graph.Event{Time: temporal.Time(i), Kind: kind, Node: u, Other: v, Key: "k", Value: "v"})
		}
		mid := 60
		gMid, err := graph.FromEvents(evs[:mid])
		if err != nil {
			return false
		}
		gFull, err := graph.FromEvents(evs)
		if err != nil {
			return false
		}
		// snapshot(mid) + tail events == snapshot(end)
		reconstructed := FromGraph(gMid).Materialize()
		el := NewEventList(temporal.NewInterval(temporal.Time(mid), temporal.Time(len(evs))), evs[mid:])
		if err := el.ApplyTo(reconstructed); err != nil {
			return false
		}
		return reconstructed.Equal(gFull)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestApplyToSharesFrozenStates(t *testing.T) {
	src := randGraph(31, 60)
	d := FromGraph(src)
	for _, ns := range d.Nodes {
		ns.Freeze()
	}
	d.MarkDeleted(9999) // no-op tombstone must not break the merge
	a, b := graph.New(), graph.New()
	d.ApplyTo(a)
	d.ApplyTo(b)
	if !a.Equal(src) || !b.Equal(src) {
		t.Fatal("ApplyTo did not reproduce the source graph")
	}
	for _, id := range a.NodeIDs() {
		if a.Node(id) != d.Nodes[id] {
			t.Fatalf("node %d was copied, not shared", id)
		}
	}
	// Writing one graph leaves the shared states, and so the other
	// graph, as they were.
	for _, id := range a.NodeIDs() {
		a.RemoveNode(id)
	}
	if a.NumNodes() != 0 || !b.Equal(src) {
		t.Fatal("writing one graph changed a frozen state")
	}
}
