package graph

import (
	"math"
	"sort"
)

// This file implements the static network metrics exercised by the paper's
// analytics examples (Figure 1's red entries and Figure 7's tasks):
// density, clustering coefficients, PageRank, shortest paths, connected
// components, triangle counting and degree statistics.

// Density returns the undirected graph density 2E / (N(N-1)), where E is
// the number of distinct unordered neighbor pairs. The first call counts
// the pairs in O(N+E), on a graph of fewer than two nodes too; the
// graph's mutators keep the count up to date from then on, so later calls
// cost O(1), however many nodes the graph has gained.
func (g *Graph) Density() float64 {
	e := g.undirectedEdgeCount()
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	return 2 * float64(e) / (float64(n) * float64(n-1))
}

// undirectedEdgeCount returns the number of distinct unordered adjacent
// pairs: half the sum of nodeSides, counted on the first call and kept by
// the mutators after it.
func (g *Graph) undirectedEdgeCount() int {
	s := g.sides.Load()
	if s == 0 {
		for _, ns := range g.all {
			s += int64(nodeSides(ns))
		}
		s++
		g.sides.Store(s)
	}
	return int(s-1) / 2
}

// nodeSides is ns's share of twice its graph's pair count: one per
// distinct neighbor, and two for a self-loop, whose pair has ns at both
// ends.
func nodeSides(ns *NodeState) int {
	n := ns.Degree()
	if _, loop := ns.Edges[EdgeKey{Other: ns.ID, Out: true}]; loop {
		n += 2
	}
	return n
}

// keySides is edge key k's share of nodeSides(ns), given the other keys of
// ns: what adding k to ns adds, or deleting it takes away. A node sees each
// neighbor through its out-edge key, or through its in-edge key when no
// out-edge twin exists; a self-loop counts on its out-edge key alone.
func keySides(ns *NodeState, k EdgeKey) int {
	if k.Other == ns.ID {
		if k.Out {
			return 2
		}
		return 0
	}
	if _, twin := ns.Edges[EdgeKey{Other: k.Other, Out: !k.Out}]; twin {
		return 0
	}
	return 1
}

// AvgDegree returns the mean undirected degree.
func (g *Graph) AvgDegree() float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	total := 0
	for _, ns := range g.all {
		total += ns.Degree()
	}
	return float64(total) / float64(g.NumNodes())
}

// LocalClusteringCoefficient returns the fraction of a node's distinct
// neighbor pairs that are themselves connected (in either direction;
// reciprocal edges count once). Returns 0 for degree < 2 and for missing
// nodes.
func (g *Graph) LocalClusteringCoefficient(id NodeID) float64 {
	nbs := g.Neighbors(id)
	d := len(nbs)
	if d < 2 {
		return 0
	}
	links := 0
	for i, u := range nbs {
		un := g.Node(u)
		if un == nil {
			continue
		}
		for _, w := range nbs[i+1:] {
			if un.HasEdgeTo(w) {
				links++
			}
		}
	}
	return 2 * float64(links) / (float64(d) * float64(d-1))
}

// AverageClusteringCoefficient returns the mean LCC over all nodes.
func (g *Graph) AverageClusteringCoefficient() float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	sum := 0.0
	for id := range g.all {
		sum += g.LocalClusteringCoefficient(id)
	}
	return sum / float64(g.NumNodes())
}

// TriangleCount returns the number of undirected triangles.
func (g *Graph) TriangleCount() int {
	// Neighbor sets on the undirected view, counting each triangle 3 times.
	adj := make(map[NodeID]map[NodeID]struct{}, g.NumNodes())
	for id, ns := range g.all {
		set := make(map[NodeID]struct{}, len(ns.Edges))
		for k := range ns.Edges {
			if k.Other != id {
				set[k.Other] = struct{}{}
			}
		}
		adj[id] = set
	}
	count := 0
	for u, us := range adj {
		for v := range us {
			if v <= u {
				continue
			}
			for w := range adj[v] {
				if w <= v {
					continue
				}
				if _, ok := us[w]; ok {
					count++
				}
			}
		}
	}
	return count
}

// PageRank computes PageRank over outgoing edges with the given damping
// factor and iteration count, distributing dangling mass uniformly.
// Standard parameters are damping=0.85, iters=20.
func (g *Graph) PageRank(damping float64, iters int) map[NodeID]float64 {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	rank := make(map[NodeID]float64, n)
	outDeg := make(map[NodeID]int, n)
	for id, ns := range g.all {
		rank[id] = 1.0 / float64(n)
		outDeg[id] = ns.OutDegree()
	}
	for it := 0; it < iters; it++ {
		next := make(map[NodeID]float64, n)
		dangling := 0.0
		for id := range g.all {
			if outDeg[id] == 0 {
				dangling += rank[id]
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for id := range g.all {
			next[id] = base
		}
		for id, ns := range g.all {
			if outDeg[id] == 0 {
				continue
			}
			share := damping * rank[id] / float64(outDeg[id])
			for k := range ns.Edges {
				if k.Out {
					next[k.Other] += share
				}
			}
		}
		rank = next
	}
	return rank
}

// BFSDistances returns the undirected hop distance from root to every
// reachable node (root included with distance 0).
func (g *Graph) BFSDistances(root NodeID) map[NodeID]int {
	if !g.Has(root) {
		return nil
	}
	dist := map[NodeID]int{root: 0}
	frontier := []NodeID{root}
	for d := 1; len(frontier) > 0; d++ {
		var next []NodeID
		for _, id := range frontier {
			for _, nb := range g.Neighbors(id) {
				if _, seen := dist[nb]; !seen {
					dist[nb] = d
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	return dist
}

// ShortestPathLength returns the undirected hop distance between two nodes
// and whether a path exists, via bidirectional-ish plain BFS.
func (g *Graph) ShortestPathLength(from, to NodeID) (int, bool) {
	if from == to {
		if g.Has(from) {
			return 0, true
		}
		return 0, false
	}
	d, ok := g.BFSDistances(from)[to]
	if ok {
		return d, true
	}
	// Distinguish "unreachable" from "missing root".
	return 0, false
}

// ConnectedComponents returns the undirected components as sorted id
// slices, largest first.
func (g *Graph) ConnectedComponents() [][]NodeID {
	visited := make(map[NodeID]bool, g.NumNodes())
	var comps [][]NodeID
	for id := range g.all {
		if visited[id] {
			continue
		}
		var comp []NodeID
		stack := []NodeID{id}
		visited[id] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, cur)
			for _, nb := range g.Neighbors(cur) {
				if !visited[nb] {
					visited[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}

// ApproxDiameter estimates the diameter with a double BFS sweep from an
// arbitrary node of the largest component. Exact on trees, a lower bound
// in general — sufficient for the evolution-of-diameter analytics the
// paper motivates.
func (g *Graph) ApproxDiameter() int {
	comps := g.ConnectedComponents()
	if len(comps) == 0 {
		return 0
	}
	start := comps[0][0]
	far, _ := farthest(g, start)
	_, d := farthest(g, far)
	return d
}

func farthest(g *Graph, root NodeID) (NodeID, int) {
	dist := g.BFSDistances(root)
	best, bestD := root, 0
	for id, d := range dist {
		if d > bestD || (d == bestD && id < best) {
			best, bestD = id, d
		}
	}
	return best, bestD
}

// DegreeHistogram returns counts of undirected degrees.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for _, ns := range g.all {
		h[ns.Degree()]++
	}
	return h
}

// DegreeCentralityTop returns the k nodes with the highest undirected
// degree, ties broken by smaller id.
func (g *Graph) DegreeCentralityTop(k int) []NodeID {
	type nd struct {
		id NodeID
		d  int
	}
	all := make([]nd, 0, g.NumNodes())
	for id, ns := range g.all {
		all = append(all, nd{id, ns.Degree()})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d > all[j].d
		}
		return all[i].id < all[j].id
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].id
	}
	return out
}

// AttrFraction returns the fraction of nodes whose attribute key equals
// value — the label-counting quantity of the paper's Figure 8 example.
func (g *Graph) AttrFraction(key, value string) float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	n := 0
	for _, ns := range g.all {
		if v, ok := ns.Attrs[key]; ok && v == value {
			n++
		}
	}
	return float64(n) / float64(g.NumNodes())
}

// AttrCount returns the number of nodes whose attribute key equals value.
func (g *Graph) AttrCount(key, value string) int {
	n := 0
	for _, ns := range g.all {
		if v, ok := ns.Attrs[key]; ok && v == value {
			n++
		}
	}
	return n
}

// Conductance returns the conductance of the cut defined by the node set s
// (ids not in the graph are ignored): cut edges / min(vol(S), vol(V\S)).
func (g *Graph) Conductance(s []NodeID) float64 {
	in := make(map[NodeID]struct{}, len(s))
	for _, id := range s {
		if g.Has(id) {
			in[id] = struct{}{}
		}
	}
	if len(in) == 0 || len(in) == g.NumNodes() {
		return 0
	}
	cut, volS, volRest := 0, 0, 0
	for id, ns := range g.all {
		_, inS := in[id]
		deg := 0
		for k := range ns.Edges {
			if k.Other == id {
				continue
			}
			deg++
			if !k.Out {
				continue // count each undirected edge once from the Out side
			}
			_, otherIn := in[k.Other]
			if inS != otherIn {
				cut++
			}
		}
		if inS {
			volS += deg
		} else {
			volRest += deg
		}
	}
	denom := math.Min(float64(volS), float64(volRest))
	if denom == 0 {
		return 1
	}
	return float64(cut) / denom
}
