package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
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

// recountPairs is the from-scratch reference for the pair count Density
// keeps: per node, a set of the distinct neighbors other than itself, plus
// two for a self-loop's out-edge key; half the sum.
func recountPairs(g *Graph) int {
	sides := 0
	g.Range(func(ns *NodeState) bool {
		seen := map[NodeID]bool{}
		for k := range ns.Edges {
			if k.Other != ns.ID {
				seen[k.Other] = true
			} else if k.Out {
				sides += 2
			}
		}
		sides += len(seen)
		return true
	})
	return sides / 2
}

// randomState returns a state of id with random edge keys over ids
// [0, space): self-loops, reciprocal pairs and keys whose mirror the
// graph may lack.
func randomState(rng *rand.Rand, id NodeID, space int) *NodeState {
	ns := NewNodeState(id)
	for i := rng.Intn(6); i > 0; i-- {
		if ns.Edges == nil {
			ns.Edges = map[EdgeKey]*EdgeState{}
		}
		ns.Edges[EdgeKey{Other: NodeID(rng.Intn(space)), Out: rng.Intn(2) == 0}] = &EdgeState{}
	}
	return ns
}

// TestPairCountMatchesRecount drives seeded random sequences of every
// mutator over a small id space, asks Density at random steps, and checks
// the maintained pair count against recountPairs after every step at which
// it is known.
func TestPairCountMatchesRecount(t *testing.T) {
	const space = 12
	kinds := []EventKind{AddNode, RemoveNode, AddEdge, RemoveEdge, SetNodeAttr, DelNodeAttr, SetEdgeAttr, DelEdgeAttr}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		id := func() NodeID { return NodeID(rng.Intn(space)) }
		for step := 0; step < 600; step++ {
			var op string
			switch r := rng.Intn(20); {
			case r < 8:
				e := Event{Kind: kinds[rng.Intn(len(kinds))], Node: id(), Other: id(), Key: "k", Value: "v"}
				op = "Apply " + e.String()
				if err := g.Apply(e); err != nil {
					t.Fatal(err)
				}
			case r < 12:
				e := Event{Kind: kinds[2+rng.Intn(6)], Node: id(), Other: id(), Key: "k", Value: "v"}
				if !e.Kind.IsEdge() {
					e.Kind = AddEdge
				}
				side := e.Node
				if rng.Intn(2) == 0 {
					side = e.Other
				}
				op = fmt.Sprintf("ApplySide %v on %d", e, side)
				if err := g.ApplySide(e, side); err != nil {
					t.Fatal(err)
				}
			case r < 13:
				n := id()
				op = fmt.Sprintf("RemoveNode %d", n)
				g.RemoveNode(n)
			case r < 14:
				n := id()
				op = fmt.Sprintf("DropNode %d", n)
				g.DropNode(n)
			case r < 16:
				ns := randomState(rng, id(), space)
				if rng.Intn(2) == 0 {
					ns.Freeze()
				}
				op = fmt.Sprintf("PutNode %v frozen=%v", ns, ns.frozen)
				g.PutNode(ns)
			case r < 17:
				op = "Symmetrize"
				g.Symmetrize()
			case r < 18:
				op = "Clone"
				g = g.Clone()
			case r < 19:
				op = "DisjointUnion"
				parts := []*Graph{New(), New(), New()}
				of := func(id NodeID) int { return int(id) % len(parts) }
				g.Range(func(ns *NodeState) bool {
					parts[of(ns.ID)].PutNode(ns)
					return true
				})
				counted := true
				for _, p := range parts {
					if rng.Intn(4) != 0 {
						p.undirectedEdgeCount()
					} else {
						counted = false
					}
				}
				g = DisjointUnion(of, parts...)
				if counted && g.sides.Load() == 0 {
					t.Fatalf("seed %d step %d: a union of counted parts lost their pair count", seed, step)
				}
			default:
				op = "Density"
				want := recountPairs(g)
				n := float64(g.NumNodes())
				wantD := 0.0
				if n >= 2 {
					wantD = 2 * float64(want) / (n * (n - 1))
				}
				if d := g.Density(); d != wantD {
					t.Fatalf("seed %d step %d: Density = %v, want %v (%d pairs)", seed, step, d, wantD, want)
				}
			}
			if s := g.sides.Load(); s != 0 {
				if got, want := int(s-1)/2, recountPairs(g); got != want {
					t.Fatalf("seed %d step %d, after %s: kept count %d pairs, recount %d", seed, step, op, got, want)
				}
			}
		}
	}
}

// TestDensityConcurrentReaders has readers ask Density of one graph at
// once, before and after its count is known; under -race it proves that
// the first count's store races no reader.
func TestDensityConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New()
	for i := 0; i < 2000; i++ {
		g.AddEdge(NodeID(rng.Intn(300)), NodeID(rng.Intn(300)))
	}
	n := float64(g.NumNodes())
	want := 2 * float64(recountPairs(g)) / (n * (n - 1))
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		got := make([]float64, 4)
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = g.Density()
			}()
		}
		wg.Wait()
		for i, d := range got {
			if d != want {
				t.Fatalf("round %d reader %d: Density = %v, want %v", round, i, d, want)
			}
		}
	}
}

// TestDegreeMatchesSetReference checks Degree and Neighbors against a
// set of the distinct other endpoints, on random states with self-loops,
// reciprocal pairs and one-sided keys.
func TestDegreeMatchesSetReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		ns := randomState(rng, NodeID(rng.Intn(8)), 8)
		seen := map[NodeID]bool{}
		for k := range ns.Edges {
			if k.Other != ns.ID {
				seen[k.Other] = true
			}
		}
		want := make([]NodeID, 0, len(seen))
		for id := range seen {
			want = append(want, id)
		}
		slices.Sort(want)
		if d := ns.Degree(); d != len(want) {
			t.Fatalf("%v with keys %v: Degree = %d, want %d", ns, ns.Edges, d, len(want))
		}
		if nb := ns.Neighbors(); !slices.Equal(nb, want) {
			t.Fatalf("%v with keys %v: Neighbors = %v, want %v", ns, ns.Edges, nb, want)
		}
	}
}

// BenchmarkDensity measures the first Density of a 2,000-node random
// graph with reciprocal pairs and self-loops — the O(N+E) count, made
// again each iteration by forgetting the kept one; it allocates nothing.
func BenchmarkDensity(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.sides.Store(0)
		densitySink = g.Density()
	}
}

// BenchmarkDensityAfterEdit measures Evolution's pattern on the same
// graph: one AddEdge or RemoveEdge, then Density, which reads the count
// the edit kept up to date.
func BenchmarkDensityAfterEdit(b *testing.B) {
	g := benchGraph()
	rng := rand.New(rand.NewSource(2))
	pairs := make([][2]NodeID, 1024)
	for i := range pairs {
		pairs[i] = [2]NodeID{NodeID(rng.Intn(2000)), NodeID(rng.Intn(2000))}
	}
	densitySink = g.Density()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if g.HasEdge(p[0], p[1]) {
			g.RemoveEdge(p[0], p[1])
		} else {
			g.AddEdge(p[0], p[1])
		}
		densitySink = g.Density()
	}
}

// benchGraph returns the graph of the Density benchmarks: 10,000 random
// edges over 2,000 ids.
func benchGraph() *Graph {
	rng := rand.New(rand.NewSource(1))
	g := New()
	for i := 0; i < 10000; i++ {
		g.AddEdge(NodeID(rng.Intn(2000)), NodeID(rng.Intn(2000)))
	}
	return g
}

var densitySink float64
