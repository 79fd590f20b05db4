package partition

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"hgs/internal/graph"
	"hgs/internal/temporal"
)

// plantedPartitions builds a graph of `k` dense communities of size
// `commSize` with sparse cross-community edges — the structure on which
// locality partitioning must beat random (paper Fig 15a).
func plantedPartitions(rng *rand.Rand, k, commSize int, pIn, pOut float64) *WeightedGraph {
	wg := NewWeightedGraph()
	n := k * commSize
	for i := 0; i < n; i++ {
		wg.AddNode(graph.NodeID(i), 1)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			same := i/commSize == j/commSize
			p := pOut
			if same {
				p = pIn
			}
			if rng.Float64() < p {
				wg.AddEdge(graph.NodeID(i), graph.NodeID(j), 1)
			}
		}
	}
	return wg
}

func TestHashPIDStableAndInRange(t *testing.T) {
	for id := graph.NodeID(0); id < 1000; id++ {
		p := HashPID(id, 7)
		if p < 0 || p >= 7 {
			t.Fatalf("pid out of range: %d", p)
		}
		if p != HashPID(id, 7) {
			t.Fatal("hash pid not deterministic")
		}
	}
	if HashPID(42, 1) != 0 || HashPID(42, 0) != 0 {
		t.Fatal("k<=1 must map to 0")
	}
}

// TestHashPIDMatchesFNV pins HashPID to FNV-1a (hash/fnv's New64a) over
// the id's 8 little-endian bytes: every stored index places its rows by
// these values, so the inlined hash must stay bit-identical.
func TestHashPIDMatchesFNV(t *testing.T) {
	ref := func(id graph.NodeID, k int) int {
		h := fnv.New64a()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(id))
		h.Write(b[:])
		return int(h.Sum64() % uint64(k))
	}
	ids := []graph.NodeID{math.MinInt64, math.MinInt64 + 1, -1 << 40, -123456789, -256, -255, -1,
		0, 1, 2, 7, 255, 256, 65535, 1 << 20, 123456789, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		ids = append(ids, graph.NodeID(rng.Uint64()))
	}
	for _, k := range []int{2, 3, 4, 7, 500, 1 << 16, math.MaxInt32} {
		for _, id := range ids {
			if got, want := HashPID(id, k), ref(id, k); got != want {
				t.Fatalf("HashPID(%d, %d) = %d, fnv.New64a gives %d", id, k, got, want)
			}
		}
	}
}

// BenchmarkHashPID times one partition lookup of the random strategy.
func BenchmarkHashPID(b *testing.B) {
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += HashPID(graph.NodeID(i), 500)
	}
	if sum < 0 {
		b.Fatal(sum)
	}
}

func TestRandomAssignRoughlyBalanced(t *testing.T) {
	ids := make([]graph.NodeID, 10000)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	a := RandomAssign(ids, 10)
	for pid, size := range a.Sizes(10) {
		if size < 800 || size > 1200 {
			t.Fatalf("partition %d size %d too far from 1000", pid, size)
		}
	}
}

func TestLocalityBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	wg := plantedPartitions(rng, 4, 50, 0.3, 0.005)
	a := LocalityAssign(wg, 4, 3)
	sizes := a.Sizes(4)
	for pid, size := range sizes {
		// capacity = ceil(200/4 * 1.05)+1 = 54
		if size > 54 {
			t.Fatalf("partition %d overfull: %d", pid, size)
		}
		if size == 0 {
			t.Fatalf("partition %d empty", pid)
		}
	}
	if len(a) != 200 {
		t.Fatalf("assigned %d nodes, want 200", len(a))
	}
}

func TestLocalityBeatsRandomOnCommunities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	wg := plantedPartitions(rng, 4, 50, 0.3, 0.01)
	ids := make([]graph.NodeID, 0, len(wg.NodeW))
	for id := range wg.NodeW {
		ids = append(ids, id)
	}
	randCut := wg.EdgeCut(RandomAssign(ids, 4))
	locCut := wg.EdgeCut(LocalityAssign(wg, 4, 3))
	if locCut >= randCut/2 {
		t.Fatalf("locality cut %.0f not clearly better than random cut %.0f", locCut, randCut)
	}
}

func TestLocalitySingletonAndEmpty(t *testing.T) {
	wg := NewWeightedGraph()
	if a := LocalityAssign(wg, 4, 2); len(a) != 0 {
		t.Fatal("empty graph should yield empty assignment")
	}
	wg.AddNode(5, 1)
	a := LocalityAssign(wg, 1, 2)
	if a[5] != 0 {
		t.Fatal("k=1 must map everything to partition 0")
	}
}

func TestEdgeCut(t *testing.T) {
	wg := NewWeightedGraph()
	wg.AddEdge(1, 2, 2.0)
	wg.AddEdge(2, 3, 1.0)
	a := Assignment{1: 0, 2: 0, 3: 1}
	if cut := wg.EdgeCut(a); cut != 1.0 {
		t.Fatalf("cut = %v, want 1", cut)
	}
}

func historyForCollapse() (*graph.Graph, []graph.Event, temporal.Interval) {
	// Initial: edge (1,2) exists from t=0.
	g := graph.New()
	g.AddEdge(1, 2)
	events := []graph.Event{
		{Time: 25, Kind: graph.AddEdge, Node: 2, Other: 3},    // exists 25..100: 75%
		{Time: 50, Kind: graph.RemoveEdge, Node: 1, Other: 2}, // (1,2) exists 0..50: 50%
		{Time: 80, Kind: graph.AddNode, Node: 9},              // isolated, must still appear
	}
	return g, events, temporal.NewInterval(0, 100)
}

func TestCollapseUnionMax(t *testing.T) {
	g, evs, iv := historyForCollapse()
	wg := Collapse(g, evs, iv)
	if len(wg.EdgeW) != 2 {
		t.Fatalf("union-max edges = %d, want 2", len(wg.EdgeW))
	}
	if wg.EdgeW[makePair(1, 2)] != 1 || wg.EdgeW[makePair(2, 3)] != 1 {
		t.Fatalf("union-max weights wrong: %v", wg.EdgeW)
	}
	if _, ok := wg.NodeW[9]; !ok {
		t.Fatal("vertex existing during span missing from collapse")
	}
}

func TestCollapseNodeWeights(t *testing.T) {
	g, evs, iv := historyForCollapse()
	wg := Collapse(g, evs, iv)
	if len(wg.NodeW) != 4 {
		t.Fatalf("nodes = %v, want 1, 2, 3 and 9", wg.NodeW)
	}
	for id, w := range wg.NodeW {
		if w != 1 {
			t.Fatalf("weight of node %d = %v, want 1", id, w)
		}
	}
}

// TestCollapseReAddedEdgeAccumulates: an edge removed and added again
// is one edge of weight 1, and so is one added at the span's last event.
func TestCollapseReAddedEdgeAccumulates(t *testing.T) {
	g := graph.New()
	evs := []graph.Event{
		{Time: 0, Kind: graph.AddEdge, Node: 1, Other: 2},
		{Time: 10, Kind: graph.RemoveEdge, Node: 1, Other: 2},
		{Time: 90, Kind: graph.AddEdge, Node: 1, Other: 2},
		{Time: 99, Kind: graph.AddEdge, Node: 3, Other: 4},
	}
	wg := Collapse(g, evs, temporal.NewInterval(0, 100))
	if len(wg.EdgeW) != 2 || wg.EdgeW[makePair(1, 2)] != 1 || wg.EdgeW[makePair(3, 4)] != 1 {
		t.Fatalf("edges = %v, want (1,2) and (3,4) at weight 1", wg.EdgeW)
	}
}

// TestCollapseRemoveNodeClosesEdges: an edge counts only if it existed
// for a positive time, so a start-state edge that the span's first event
// removes — directly or through a RemoveNode — stays out, and one
// removed later stays in.
func TestCollapseRemoveNodeClosesEdges(t *testing.T) {
	g := graph.New()
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.AddEdge(5, 6)
	evs := []graph.Event{
		{Time: 10, Kind: graph.RemoveNode, Node: 1},
		{Time: 20, Kind: graph.RemoveNode, Node: 3},
		{Time: 30, Kind: graph.AddEdge, Node: 3, Other: 7},
	}
	wg := Collapse(g, evs, temporal.NewInterval(10, 31))
	if len(wg.EdgeW) != 3 || wg.EdgeW[makePair(3, 4)] != 1 || wg.EdgeW[makePair(5, 6)] != 1 || wg.EdgeW[makePair(3, 7)] != 1 {
		t.Fatalf("edges = %v, want (3,4), (5,6) and (3,7)", wg.EdgeW)
	}
	first := []graph.Event{{Time: 10, Kind: graph.RemoveEdge, Node: 5, Other: 6}}
	if wg := Collapse(g, first, temporal.NewInterval(10, 11)); len(wg.EdgeW) != 2 {
		t.Fatalf("edges = %v, want (1,2) and (3,4): (5,6) existed for no time", wg.EdgeW)
	}
	if _, ok := wg.NodeW[1]; !ok {
		t.Fatal("a node removed during the span must still appear")
	}
}

func TestKindStrings(t *testing.T) {
	if Random.String() != "random" || Locality.String() != "locality" {
		t.Fatal("kind names wrong")
	}
}
