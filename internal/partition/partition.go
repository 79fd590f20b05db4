// Package partition implements the graph partitioning strategies of the
// paper (§4.5): random node-id hashing, locality-aware partitioning (the
// paper's min-cut/"Maxflow" style; we substitute a Linear Deterministic
// Greedy streaming placement with boundary refinement — see DESIGN.md §3.2),
// and the temporal collapse Ω that projects a time-evolving graph onto a
// single static graph before partitioning: union-max with unit node
// weights, the paper's defaults for TGI (the Median and Union-Mean
// functions and the degree weightings of §4.5 are not implemented).
package partition

import (
	"math"
	"sort"

	"hgs/internal/graph"
)

// Assignment maps each node to its partition id in [0, k).
type Assignment map[graph.NodeID]int

// Kind selects the partitioning strategy.
type Kind int

const (
	// Random assigns nodes by id hash — minimal bookkeeping, poor locality.
	Random Kind = iota
	// Locality clusters topologically close nodes — fewer edge cuts, needs
	// a stored node→partition map (the Micropartitions table).
	Locality
)

func (k Kind) String() string {
	if k == Locality {
		return "locality"
	}
	return "random"
}

// FNV-1a 64-bit parameters (the hash of hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashPID returns a stateless hash partition id for a node, so no
// Micropartitions bookkeeping is needed: FNV-1a over the id's 8
// little-endian bytes, modulo k. It places the horizontal partitions of
// every span and the random-strategy micro-partitions of spans written
// before MixPID. It and MixPID inline, because the read path resolves
// ownership once per edge endpoint it replays.
func HashPID(id graph.NodeID, k int) int {
	if k <= 1 {
		return 0
	}
	return int(fnv64(id) % uint64(k))
}

// fnv64 is FNV-1a over the id's 8 little-endian bytes.
func fnv64(id graph.NodeID) uint64 {
	h := uint64(fnvOffset64)
	for x, i := uint64(id), 0; i < 8; x, i = x>>8, i+1 {
		h ^= x & 0xff
		h *= fnvPrime64
	}
	return h
}

// MixPID is HashPID finished with a 64-bit avalanche mix (MurmurHash3's
// fmix64), the random-strategy partition id of spans written with
// mixed pids. FNV-1a's low output bits depend only on the low bits of
// its input bytes, so HashPID's residues modulo small k are correlated
// with the residues of any other FNV hash of the id — the horizontal
// partition's, for one — and an even k leaves micro-partitions empty in
// every horizontal partition; the mix makes every output bit depend on
// every input bit.
func MixPID(id graph.NodeID, k int) int {
	if k <= 1 {
		return 0
	}
	h := fnv64(id)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec86
	h ^= h >> 33
	return int(h % uint64(k))
}

// RandomAssign materializes the hash assignment for an explicit node set.
func RandomAssign(ids []graph.NodeID, k int) Assignment {
	a := make(Assignment, len(ids))
	for _, id := range ids {
		a[id] = HashPID(id, k)
	}
	return a
}

// WeightedGraph is the static projection a temporal graph collapses to
// before locality partitioning: node weights and undirected edge weights.
type WeightedGraph struct {
	NodeW map[graph.NodeID]float64
	EdgeW map[EdgePair]float64
}

// EdgePair is an unordered node pair with U < V.
type EdgePair struct {
	U, V graph.NodeID
}

// makePair normalizes an unordered pair.
func makePair(a, b graph.NodeID) EdgePair {
	if a > b {
		a, b = b, a
	}
	return EdgePair{U: a, V: b}
}

// NewWeightedGraph returns an empty weighted graph.
func NewWeightedGraph() *WeightedGraph {
	return &WeightedGraph{
		NodeW: make(map[graph.NodeID]float64),
		EdgeW: make(map[EdgePair]float64),
	}
}

// AddNode ensures the node exists with at least weight w.
func (wg *WeightedGraph) AddNode(id graph.NodeID, w float64) {
	if old, ok := wg.NodeW[id]; !ok || w > old {
		wg.NodeW[id] = w
	}
}

// AddEdge sets the weight of the undirected edge (max with existing).
func (wg *WeightedGraph) AddEdge(u, v graph.NodeID, w float64) {
	if u == v {
		return
	}
	p := makePair(u, v)
	if old, ok := wg.EdgeW[p]; !ok || w > old {
		wg.EdgeW[p] = w
	}
	wg.AddNode(u, 1)
	wg.AddNode(v, 1)
}

// adjacency returns neighbor→weight maps.
func (wg *WeightedGraph) adjacency() map[graph.NodeID]map[graph.NodeID]float64 {
	adj := make(map[graph.NodeID]map[graph.NodeID]float64, len(wg.NodeW))
	for id := range wg.NodeW {
		adj[id] = nil
	}
	for p, w := range wg.EdgeW {
		if adj[p.U] == nil {
			adj[p.U] = make(map[graph.NodeID]float64)
		}
		if adj[p.V] == nil {
			adj[p.V] = make(map[graph.NodeID]float64)
		}
		adj[p.U][p.V] = w
		adj[p.V][p.U] = w
	}
	return adj
}

// EdgeCut returns the total weight of edges whose endpoints fall in
// different partitions (the quantity locality partitioning minimizes).
func (wg *WeightedGraph) EdgeCut(a Assignment) float64 {
	cut := 0.0
	for p, w := range wg.EdgeW {
		if a[p.U] != a[p.V] {
			cut += w
		}
	}
	return cut
}

// LocalityAssign partitions the weighted graph into k balanced parts using
// Linear Deterministic Greedy streaming placement followed by `refinePasses`
// boundary-refinement sweeps. Balance constraint: every partition's node
// count stays within ceil(n/k * slack).
func LocalityAssign(wg *WeightedGraph, k int, refinePasses int) Assignment {
	n := len(wg.NodeW)
	a := make(Assignment, n)
	if n == 0 {
		return a
	}
	if k <= 1 {
		for id := range wg.NodeW {
			a[id] = 0
		}
		return a
	}
	capacity := int(math.Ceil(float64(n)/float64(k)*1.05)) + 1
	adj := wg.adjacency()

	// Stream nodes in BFS order from the smallest id of each component so
	// that neighbors tend to arrive near each other (improves LDG
	// placement markedly over id order).
	order := bfsOrder(wg, adj)

	sizes := make([]int, k)
	for _, id := range order {
		best, bestScore := -1, math.Inf(-1)
		// Edge weight into each partition.
		into := make(map[int]float64)
		for nb, w := range adj[id] {
			if pid, ok := a[nb]; ok {
				into[pid] += w
			}
		}
		for pid := 0; pid < k; pid++ {
			if sizes[pid] >= capacity {
				continue
			}
			score := into[pid] * (1 - float64(sizes[pid])/float64(capacity))
			if into[pid] == 0 {
				// Tie-break empty-affinity nodes toward the emptiest
				// partition to keep balance.
				score = -float64(sizes[pid]) / float64(capacity) * 1e-9
			}
			if score > bestScore {
				best, bestScore = pid, score
			}
		}
		if best < 0 { // all full (can happen with tiny slack); spill to min
			for pid := 0; pid < k; pid++ {
				if best < 0 || sizes[pid] < sizes[best] {
					best = pid
				}
			}
		}
		a[id] = best
		sizes[best]++
	}

	// Boundary refinement: move a node to the partition holding the
	// majority weight of its neighbors when that strictly reduces the cut
	// and respects capacity.
	ids := make([]graph.NodeID, 0, n)
	for id := range wg.NodeW {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for pass := 0; pass < refinePasses; pass++ {
		moved := 0
		for _, id := range ids {
			cur := a[id]
			into := make(map[int]float64)
			for nb, w := range adj[id] {
				into[a[nb]] += w
			}
			best, bestGain := cur, 0.0
			for pid, w := range into {
				if pid == cur || sizes[pid] >= capacity {
					continue
				}
				gain := w - into[cur]
				if gain > bestGain || (gain == bestGain && gain > 0 && pid < best) {
					best, bestGain = pid, gain
				}
			}
			if best != cur && bestGain > 0 {
				sizes[cur]--
				sizes[best]++
				a[id] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	return a
}

// bfsOrder returns all node ids in per-component BFS order, components
// visited by ascending smallest id, neighbors by descending edge weight.
func bfsOrder(wg *WeightedGraph, adj map[graph.NodeID]map[graph.NodeID]float64) []graph.NodeID {
	all := make([]graph.NodeID, 0, len(wg.NodeW))
	for id := range wg.NodeW {
		all = append(all, id)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	visited := make(map[graph.NodeID]bool, len(all))
	order := make([]graph.NodeID, 0, len(all))
	for _, root := range all {
		if visited[root] {
			continue
		}
		visited[root] = true
		queue := []graph.NodeID{root}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			order = append(order, cur)
			nbs := make([]graph.NodeID, 0, len(adj[cur]))
			for nb := range adj[cur] {
				if !visited[nb] {
					nbs = append(nbs, nb)
				}
			}
			sort.Slice(nbs, func(i, j int) bool {
				wi, wj := adj[cur][nbs[i]], adj[cur][nbs[j]]
				if wi != wj {
					return wi > wj
				}
				return nbs[i] < nbs[j]
			})
			for _, nb := range nbs {
				visited[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return order
}

// Sizes returns per-partition node counts.
func (a Assignment) Sizes(k int) []int {
	out := make([]int, k)
	for _, pid := range a {
		if pid >= 0 && pid < k {
			out[pid]++
		}
	}
	return out
}
