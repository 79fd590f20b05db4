package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// triangle returns the 3-cycle on {1,2,3}.
func triangle() *Graph {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(1, 3)
	return g
}

func TestDensity(t *testing.T) {
	g := triangle()
	if d := g.Density(); math.Abs(d-1.0) > 1e-12 {
		t.Fatalf("triangle density = %v, want 1", d)
	}
	g.AddNode(4)
	// 3 edges, 4 nodes: 2*3/(4*3) = 0.5
	if d := g.Density(); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("density = %v, want 0.5", d)
	}
	if New().Density() != 0 {
		t.Fatal("empty graph density should be 0")
	}
}

func TestUndirectedEdgeCount(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edges [][2]NodeID
		want  int
	}{
		{"empty", nil, 0},
		{"one-sided", [][2]NodeID{{1, 2}, {2, 3}}, 2},
		{"reciprocal pair", [][2]NodeID{{1, 2}, {2, 1}}, 1},
		{"self-loop", [][2]NodeID{{1, 1}}, 1},
		{"self-loop beside a reciprocal pair", [][2]NodeID{{1, 1}, {1, 2}, {2, 1}, {2, 2}}, 3},
		{"mixed", [][2]NodeID{{1, 2}, {2, 1}, {2, 3}, {3, 1}, {4, 4}, {4, 1}}, 5},
	} {
		g := New()
		for _, e := range tc.edges {
			g.AddEdge(e[0], e[1])
		}
		if got := g.undirectedEdgeCount(); got != tc.want {
			t.Errorf("%s: undirectedEdgeCount = %d, want %d", tc.name, got, tc.want)
		}
	}
	// A one-sided in-edge (its out-edge twin lives on an absent node, as
	// in a partially materialized graph) still names a neighbor.
	g := New()
	g.PutNode(&NodeState{ID: 1, Edges: map[EdgeKey]*EdgeState{{Other: 2, Out: false}: {}}})
	g.PutNode(&NodeState{ID: 2, Edges: map[EdgeKey]*EdgeState{{Other: 1, Out: false}: {}}})
	if got := g.undirectedEdgeCount(); got != 1 {
		t.Fatalf("in-edges only: undirectedEdgeCount = %d, want 1", got)
	}
}

func TestLocalClusteringCoefficient(t *testing.T) {
	g := triangle()
	if c := g.LocalClusteringCoefficient(1); math.Abs(c-1.0) > 1e-12 {
		t.Fatalf("LCC in triangle = %v, want 1", c)
	}
	// Star: center 0 with leaves 1..4, no leaf-leaf edges -> LCC(0)=0.
	s := New()
	for i := NodeID(1); i <= 4; i++ {
		s.AddEdge(0, i)
	}
	if c := s.LocalClusteringCoefficient(0); c != 0 {
		t.Fatalf("star center LCC = %v, want 0", c)
	}
	s.AddEdge(1, 2)
	// One of C(4,2)=6 pairs connected.
	if c := s.LocalClusteringCoefficient(0); math.Abs(c-1.0/6.0) > 1e-12 {
		t.Fatalf("LCC = %v, want 1/6", c)
	}
	if s.LocalClusteringCoefficient(99) != 0 {
		t.Fatal("missing node LCC should be 0")
	}
}

func TestTriangleCount(t *testing.T) {
	g := triangle()
	if n := g.TriangleCount(); n != 1 {
		t.Fatalf("TriangleCount = %d, want 1", n)
	}
	g.AddEdge(2, 4)
	g.AddEdge(3, 4)
	if n := g.TriangleCount(); n != 2 {
		t.Fatalf("TriangleCount = %d, want 2", n)
	}
}

func TestPageRankUniformOnCycle(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	pr := g.PageRank(0.85, 30)
	for id, r := range pr {
		if math.Abs(r-1.0/3.0) > 1e-6 {
			t.Fatalf("cycle PageRank[%d] = %v, want 1/3", id, r)
		}
	}
	// Sum must be ~1 even with dangling nodes.
	g.AddEdge(4, 1) // 4 has out-degree 1; add dangling node 5
	g.AddNode(5)
	sum := 0.0
	for _, r := range g.PageRank(0.85, 30) {
		sum += r
	}
	if math.Abs(sum-1.0) > 1e-6 {
		t.Fatalf("PageRank sum = %v, want 1", sum)
	}
}

func TestBFSAndShortestPath(t *testing.T) {
	g := New()
	for _, e := range [][2]NodeID{{1, 2}, {2, 3}, {3, 4}, {1, 5}} {
		g.AddEdge(e[0], e[1])
	}
	d := g.BFSDistances(1)
	if d[4] != 3 || d[5] != 1 || d[1] != 0 {
		t.Fatalf("BFS distances wrong: %v", d)
	}
	if l, ok := g.ShortestPathLength(1, 4); !ok || l != 3 {
		t.Fatalf("ShortestPathLength(1,4) = %d,%v want 3,true", l, ok)
	}
	g.AddNode(100)
	if _, ok := g.ShortestPathLength(1, 100); ok {
		t.Fatal("unreachable node should report no path")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(10, 11)
	g.AddNode(20)
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	if len(comps[0]) != 3 || comps[0][0] != 1 {
		t.Fatalf("largest component wrong: %v", comps[0])
	}
	if len(comps[2]) != 1 || comps[2][0] != 20 {
		t.Fatalf("singleton component wrong: %v", comps[2])
	}
}

func TestApproxDiameterOnPath(t *testing.T) {
	g := New()
	for i := NodeID(0); i < 9; i++ {
		g.AddEdge(i, i+1)
	}
	if d := g.ApproxDiameter(); d != 9 {
		t.Fatalf("path diameter = %d, want 9", d)
	}
}

func TestAttrMetrics(t *testing.T) {
	g := New()
	for i := NodeID(0); i < 10; i++ {
		g.AddNode(i)
		if i < 4 {
			g.Apply(Event{Kind: SetNodeAttr, Node: i, Key: "EntityType", Value: "Author"})
		}
	}
	if n := g.AttrCount("EntityType", "Author"); n != 4 {
		t.Fatalf("AttrCount = %d, want 4", n)
	}
	if f := g.AttrFraction("EntityType", "Author"); math.Abs(f-0.4) > 1e-12 {
		t.Fatalf("AttrFraction = %v, want 0.4", f)
	}
}

func TestDegreeMetrics(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(1, 4)
	g.AddEdge(2, 3)
	top := g.DegreeCentralityTop(2)
	if top[0] != 1 {
		t.Fatalf("top degree node = %d, want 1", top[0])
	}
	h := g.DegreeHistogram()
	if h[3] != 1 || h[2] != 2 || h[1] != 1 {
		t.Fatalf("histogram wrong: %v", h)
	}
	if a := g.AvgDegree(); math.Abs(a-2.0) > 1e-12 {
		t.Fatalf("AvgDegree = %v, want 2", a)
	}
}

func TestConductance(t *testing.T) {
	// Two triangles joined by a single edge: cut {1,2,3} has conductance
	// 1/min(7,7)=1/7.
	g := triangle()
	g.AddEdge(4, 5)
	g.AddEdge(5, 6)
	g.AddEdge(4, 6)
	g.AddEdge(3, 4)
	c := g.Conductance([]NodeID{1, 2, 3})
	if math.Abs(c-1.0/7.0) > 1e-12 {
		t.Fatalf("conductance = %v, want 1/7", c)
	}
}

func TestPropertyMetricBounds(t *testing.T) {
	// Invariants over random graphs: density and LCC in [0,1], components
	// partition the node set, triangle count consistent with average LCC
	// being positive iff triangles exist.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		for i := 0; i < 200; i++ {
			u := NodeID(rng.Intn(25))
			v := NodeID(rng.Intn(25))
			switch rng.Intn(4) {
			case 0:
				g.AddNode(u)
			case 1, 2:
				g.AddEdge(u, v)
			case 3:
				g.RemoveEdge(u, v)
			}
		}
		d := g.Density()
		if d < 0 || d > 1.0000001 {
			return false
		}
		total := 0
		for _, comp := range g.ConnectedComponents() {
			total += len(comp)
		}
		if total != g.NumNodes() {
			return false
		}
		for _, id := range g.NodeIDs() {
			c := g.LocalClusteringCoefficient(id)
			if c < 0 || c > 1.0000001 {
				return false
			}
		}
		hasTriangles := g.TriangleCount() > 0
		hasCC := g.AverageClusteringCoefficient() > 0
		return hasTriangles == hasCC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBFSDistanceMonotone(t *testing.T) {
	// Neighbors' BFS distances differ by at most 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		for i := 0; i < 150; i++ {
			g.AddEdge(NodeID(rng.Intn(20)), NodeID(rng.Intn(20)))
		}
		ids := g.NodeIDs()
		if len(ids) == 0 {
			return true
		}
		root := ids[rng.Intn(len(ids))]
		dist := g.BFSDistances(root)
		for id, d := range dist {
			for _, nb := range g.Neighbors(id) {
				nd, ok := dist[nb]
				if !ok {
					return false // neighbor of reachable node must be reachable
				}
				if nd > d+1 || d > nd+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSymmetrize(t *testing.T) {
	g := New()
	// Hand-assemble a one-sided edge: node 1 knows about (1->2), node 2
	// does not.
	n1 := NewNodeState(1)
	n1.Edges = map[EdgeKey]*EdgeState{{Other: 2, Out: true}: {Attrs: Attrs{"w": "5"}}}
	g.PutNode(n1)
	g.PutNode(NewNodeState(2))
	g.Symmetrize()
	mirror := g.Node(2).Edges[EdgeKey{Other: 1, Out: false}]
	if mirror == nil || mirror.Attrs["w"] != "5" {
		t.Fatal("symmetrize did not create the mirror entry")
	}
	// Edges to absent endpoints stay one-sided.
	n3 := NewNodeState(3)
	n3.Edges = map[EdgeKey]*EdgeState{{Other: 99, Out: true}: {}}
	g.PutNode(n3)
	g.Symmetrize()
	if g.Has(99) {
		t.Fatal("symmetrize must not create nodes")
	}
}

// BenchmarkDensity measures Density on a 2,000-node random graph with
// reciprocal pairs and self-loops; it allocates nothing.
func BenchmarkDensity(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := New()
	for i := 0; i < 10000; i++ {
		g.AddEdge(NodeID(rng.Intn(2000)), NodeID(rng.Intn(2000)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		densitySink = g.Density()
	}
}

var densitySink float64
