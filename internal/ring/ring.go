// Package ring implements the consistent-hash placement ring of the
// storage cluster: each node projects VirtualNodes points onto a 64-bit
// hash circle, and a partition key hashing to h is owned by the first R
// distinct nodes found walking clockwise from h.
//
// The ring is deterministic: a point's position depends only on the
// node id and the virtual-node index (no process-dependent seed), so
// two processes building a ring over the same node set place every key
// identically — the property that lets a DataDir store reattach to its
// persisted partitions. Rings are immutable; With/Without derive the
// ring after a membership change, and Moved measures how many of a key
// sample would relocate between two ring states (consistent hashing
// bounds this near K·R/m, versus the near-total reshuffle of modulo
// placement).
package ring

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the per-node point count used when a caller
// passes vnodes <= 0. 64 points per node keeps the largest/smallest
// key-share ratio within a few tens of percent for small clusters while
// the points slice stays cache-resident.
const DefaultVirtualNodes = 64

// point is one virtual node on the circle.
type point struct {
	hash uint64
	node int
}

// Ring is an immutable placement state: a node set plus its projected
// points. Safe for concurrent use.
type Ring struct {
	vnodes   int
	replicas int
	nodes    []int // sorted, distinct
	points   []point
}

// mix64 is a 64-bit avalanche finalizer (the MurmurHash3 fmix64
// constants): every input bit affects every output bit. FNV-64a alone
// is not enough for ring positions — inputs differing only in their
// trailing bytes (consecutive vnode indexes, lexically similar
// partition keys) come out of FNV numerically adjacent, which would
// collapse each node's points into one tight cluster and with them any
// similarity structure of the key population onto one arc.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec86
	x ^= x >> 33
	return x
}

// vnodeHash positions virtual node idx of a node on the circle. The 'v'
// domain prefix decorrelates point positions from key hashes (both are
// FNV-64a outputs); mix64 spreads the consecutive indexes over the
// whole circle.
func vnodeHash(node, idx int) uint64 {
	var b [17]byte
	b[0] = 'v'
	binary.BigEndian.PutUint64(b[1:9], uint64(node))
	binary.BigEndian.PutUint64(b[9:17], uint64(idx))
	h := fnv.New64a()
	h.Write(b[:])
	return mix64(h.Sum64())
}

// New builds the ring over the given nodes (copied, deduplicated) with
// vnodes points per node and the target replication factor. A lookup
// returns min(replicas, len(nodes)) distinct owners. An empty node set
// yields a ring whose lookups return nothing.
func New(nodes []int, vnodes, replicas int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	if replicas < 1 {
		replicas = 1
	}
	ns := append([]int(nil), nodes...)
	sort.Ints(ns)
	ns = dedupSorted(ns)
	r := &Ring{
		vnodes:   vnodes,
		replicas: replicas,
		nodes:    ns,
		points:   make([]point, 0, len(ns)*vnodes),
	}
	for _, n := range ns {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{hash: vnodeHash(n, i), node: n})
		}
	}
	// Ties broken by node id so point order — and therefore placement —
	// is identical however the node list was presented.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

func dedupSorted(ns []int) []int {
	out := ns[:0]
	for i, n := range ns {
		if i == 0 || n != ns[i-1] {
			out = append(out, n)
		}
	}
	return out
}

// Nodes returns the node set, sorted (a copy).
func (r *Ring) Nodes() []int { return append([]int(nil), r.nodes...) }

// VirtualNodes returns the per-node point count.
func (r *Ring) VirtualNodes() int { return r.vnodes }

// Has reports whether node is on the ring.
func (r *Ring) Has(node int) bool {
	i := sort.SearchInts(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}

// Lookup appends the distinct owner nodes of key hash h — primary
// first, then the clockwise successors — into buf and returns it. It
// allocates only if buf lacks capacity, so hot paths can reuse a
// stack-backed buffer across calls. The hash is passed through mix64
// before positioning, so callers may supply any deterministic 64-bit
// hash — even one whose diffusion is poor over similar keys.
func (r *Ring) Lookup(h uint64, buf []int) []int {
	out := buf[:0]
	if len(r.points) == 0 {
		return out
	}
	h = mix64(h)
	want := r.replicas
	if want > len(r.nodes) {
		want = len(r.nodes)
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; len(out) < want && i < len(r.points); i++ {
		n := r.points[(start+i)%len(r.points)].node
		if !contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// contains is a linear scan — owner lists are replication-factor sized
// (single digits), where this beats any map.
func contains(xs []int, n int) bool {
	for _, x := range xs {
		if x == n {
			return true
		}
	}
	return false
}

// With returns the ring after adding node (same vnodes/replicas).
func (r *Ring) With(node int) *Ring {
	return New(append(append([]int(nil), r.nodes...), node), r.vnodes, r.replicas)
}

// Without returns the ring after removing node.
func (r *Ring) Without(node int) *Ring {
	ns := make([]int, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n != node {
			ns = append(ns, n)
		}
	}
	return New(ns, r.vnodes, r.replicas)
}

// Shares returns each node's share of the hash circle as primary owner
// (arc length fraction). Shares sum to 1 on a non-empty ring; with
// replication r a node holds roughly r× its share of all keys.
func (r *Ring) Shares() map[int]float64 {
	shares := make(map[int]float64, len(r.nodes))
	if len(r.points) == 0 {
		return shares
	}
	const whole = float64(1<<63) * 2 // 2^64 as float
	// The arc ending at point i (exclusive of the previous point's hash,
	// inclusive of its own) is owned by point i's node; the wrap-around
	// arc belongs to the first point.
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		arc := p.hash - prev // uint64 arithmetic wraps correctly
		shares[p.node] += float64(arc) / whole
		prev = p.hash
	}
	return shares
}

// PointsOf returns how many virtual nodes node projects (vnodes if on
// the ring, else 0).
func (r *Ring) PointsOf(node int) int {
	if r.Has(node) {
		return r.vnodes
	}
	return 0
}
