// Package graph provides the static graph model underlying the Historical
// Graph Store: node states with attributes and embedded adjacency (the
// node-centric model of the paper, §3.1, where edges are attributes of
// nodes), atomic change events, an in-memory mutable Graph, and a library
// of network metrics used by the analytics framework.
package graph

import (
	"cmp"
	"fmt"
	"sort"
	"unsafe"

	"hgs/internal/temporal"
)

// NodeID uniquely identifies a vertex over the entire history.
type NodeID int64

// Attrs is a set of key-value attribute pairs attached to a node or edge.
// A nil Attrs behaves as an empty map for lookups.
type Attrs map[string]string

// Clone returns a deep copy; cloning nil yields nil.
func (a Attrs) Clone() Attrs {
	if a == nil {
		return nil
	}
	out := make(Attrs, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// Equal reports whether two attribute maps hold exactly the same pairs.
// nil and empty compare equal.
func (a Attrs) Equal(b Attrs) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// EdgeKey identifies an edge from the perspective of one endpoint: the
// other endpoint and whether the edge points outward from the owner.
// A directed edge u->v appears as {Other: v, Out: true} on u and
// {Other: u, Out: false} on v; the paper replicates edge information with
// both endpoints (§4.2) and so do we.
type EdgeKey struct {
	Other NodeID
	Out   bool
}

// CompareEdgeKeys orders edge keys by Other, the in-edge before the
// out-edge: the deterministic edge order of encodings and expansions.
// The server's JSON rows (server.EdgeJSON) put the out-edge first on
// purpose, to keep the bytes they always had; neither order is to be
// aligned with the other.
func CompareEdgeKeys(x, y EdgeKey) int {
	if c := cmp.Compare(x.Other, y.Other); c != 0 {
		return c
	}
	switch {
	case x.Out == y.Out:
		return 0
	case y.Out:
		return -1
	default:
		return 1
	}
}

// EdgeState is the state of one edge: its attributes. The endpoints and
// direction live in the EdgeKey. The edge states of a frozen node state
// (NodeState.Freeze) are never written again: Graph's mutators write
// copies in their place.
type EdgeState struct {
	Attrs Attrs
}

// Equal reports deep equality of edge states.
func (e *EdgeState) Equal(o *EdgeState) bool {
	if e == nil || o == nil {
		return e == o
	}
	return e.Attrs.Equal(o.Attrs)
}

// NodeState is the paper's "static node" (Definition 1): the state of a
// vertex at one point in time — its id, attribute map, and edge list.
//
// States reached through a query answer are read-only: the fetch layer
// freezes every state it decodes, and an answer shares those frozen
// states with the decoded-part cache and with every other answer built
// from them. Change an answer only through Graph's methods, which copy a
// frozen state on its first write, or Clone a state and change the copy.
// The edges of a state in a graph change only through the graph's
// methods, which keep the graph's pair count (Density) up to date; the
// state AddNode returns may have its Attrs written. A state decoded from
// a stored row may keep its body's bytes there for an encoder to copy
// (FreezeEncoded); no copy of a state keeps them.
type NodeState struct {
	ID    NodeID
	Attrs Attrs
	Edges map[EdgeKey]*EdgeState
	// frozen marks a state shared read-only (see Freeze); sharedEdges
	// marks a graph's copy of a frozen state whose edge map may still
	// hold frozen edge states.
	frozen, sharedEdges bool
	encoded             string // set only on a frozen state (FreezeEncoded)
}

// NewNodeState returns an empty state for the given node.
func NewNodeState(id NodeID) *NodeState {
	return &NodeState{ID: id}
}

// Freeze marks the state, with its attributes, edge map and edge
// states, as shared read-only before it is shared: no Graph method
// writes them again, and a mutator that changes the state writes a copy
// in its place. The copy is shallow — the node, its attributes and its
// edge map — and keeps pointing at the frozen edge states until the
// first edge attribute of the node changes, which copies them too.
// Equal ignores the mark. Freezing a frozen state writes nothing, so
// readers of a shared state may freeze it again without a data race.
func (n *NodeState) Freeze() {
	if !n.frozen {
		n.frozen = true
	}
}

// FreezeEncoded freezes the state before it is shared, as Freeze does,
// and records body, its encoding as read from a stored row, without a
// copy (a string header costs 8 bytes less than a slice's): body must
// never change. The state is not written again, so body stays valid.
func (n *NodeState) FreezeEncoded(body []byte) {
	n.frozen, n.encoded = true, unsafe.String(unsafe.SliceData(body), len(body))
}

// Encoded returns the body FreezeEncoded recorded, or "".
func (n *NodeState) Encoded() string { return n.encoded }

// Clone returns a deep copy of the node state; the copy is not frozen.
// Its edge states are allocated together, as one slab (see copyEdges).
func (n *NodeState) Clone() *NodeState {
	if n == nil {
		return nil
	}
	out := &NodeState{ID: n.ID, Attrs: n.Attrs.Clone()}
	if n.Edges != nil {
		out.Edges = make(map[EdgeKey]*EdgeState, len(n.Edges))
		copyEdges(out.Edges, n.Edges)
	}
	return out
}

// copyEdges stores in dst, under each key of src, a deep copy of src's
// edge state there (dst may be src), all copies in one slab: an element
// is written only through the state whose edge map holds it.
func copyEdges(dst, src map[EdgeKey]*EdgeState) {
	slab, i := make([]EdgeState, len(src)), 0
	for k, es := range src {
		if es != nil {
			slab[i].Attrs = es.Attrs.Clone()
			es, i = &slab[i], i+1
		}
		dst[k] = es
	}
}

// Equal reports deep equality of two node states. It is the component
// equality used by delta intersection (paper Definition 5). Identical
// pointers compare equal without the deep walk — the common case among
// index-build leaves, which share every state an eventlist left alone.
func (n *NodeState) Equal(o *NodeState) bool {
	if n == o {
		return true
	}
	if n == nil || o == nil {
		return false
	}
	if n.ID != o.ID || !n.Attrs.Equal(o.Attrs) || len(n.Edges) != len(o.Edges) {
		return false
	}
	for k, v := range n.Edges {
		ov, ok := o.Edges[k]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// Attr returns the value of a node attribute and whether it is set.
func (n *NodeState) Attr(key string) (string, bool) {
	v, ok := n.Attrs[key]
	return v, ok
}

// Degree returns the number of distinct neighbors (undirected view;
// self-loops do not make a node its own neighbor).
func (n *NodeState) Degree() int {
	d := 0
	for k := range n.Edges {
		if n.namesNeighbor(k) {
			d++
		}
	}
	return d
}

// namesNeighbor reports whether edge key k of n is the one key through
// which n sees neighbor k.Other: its out-edge key, or its in-edge key when
// no out-edge twin exists. A self-loop names no neighbor.
func (n *NodeState) namesNeighbor(k EdgeKey) bool {
	if k.Other == n.ID {
		return false
	}
	if k.Out {
		return true
	}
	_, twin := n.Edges[EdgeKey{Other: k.Other, Out: true}]
	return !twin
}

// OutDegree returns the number of outgoing edges.
func (n *NodeState) OutDegree() int {
	d := 0
	for k := range n.Edges {
		if k.Out {
			d++
		}
	}
	return d
}

// InDegree returns the number of incoming edges.
func (n *NodeState) InDegree() int { return len(n.Edges) - n.OutDegree() }

// Neighbors returns the distinct neighbor ids in ascending order
// (undirected view: both in- and out-edges; self-loops excluded).
func (n *NodeState) Neighbors() []NodeID {
	if len(n.Edges) == 0 {
		return nil
	}
	out := make([]NodeID, 0, len(n.Edges))
	for k := range n.Edges {
		if n.namesNeighbor(k) {
			out = append(out, k.Other)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OutNeighbors returns the targets of outgoing edges in ascending order.
func (n *NodeState) OutNeighbors() []NodeID {
	var out []NodeID
	for k := range n.Edges {
		if k.Out {
			out = append(out, k.Other)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Edge returns the edge state for the given key, or nil.
func (n *NodeState) Edge(k EdgeKey) *EdgeState { return n.Edges[k] }

// HasEdgeTo reports whether an edge exists between this node and other in
// either direction.
func (n *NodeState) HasEdgeTo(other NodeID) bool {
	if n.Edges == nil {
		return false
	}
	if _, ok := n.Edges[EdgeKey{Other: other, Out: true}]; ok {
		return true
	}
	_, ok := n.Edges[EdgeKey{Other: other, Out: false}]
	return ok
}

func (n *NodeState) String() string {
	return fmt.Sprintf("node(%d, %d attrs, %d edges)", n.ID, len(n.Attrs), len(n.Edges))
}

// Version is one state of a node together with the interval during which
// that state was valid (paper Definition 6 decomposes a temporal node into
// such versions).
type Version struct {
	State *NodeState
	Valid temporal.Interval
}
