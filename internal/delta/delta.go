// Package delta implements the paper's delta framework (§4.1): deltas as
// sets of static graph components, the algebra over them (sum, difference,
// intersection, union — Definitions 2–5), eventlists, and snapshot deltas.
//
// In the node-centric model a component is a full node state (id,
// attributes, edge list); edges travel inside the states of both their
// endpoints. Component equality — needed by intersection — is deep state
// equality.
package delta

import (
	"fmt"
	"maps"

	"hgs/internal/graph"
)

// Delta is a set of static graph components (paper Definition 2), keyed by
// node id, plus optional tombstones marking explicit deletions. Pure
// set-algebra operations (Diff, Intersect, Union) never produce
// tombstones; Transform does, so that any snapshot can be rewritten into
// any other by a single Sum.
type Delta struct {
	Nodes      map[graph.NodeID]*graph.NodeState
	Tombstones map[graph.NodeID]struct{}
}

// New returns an empty delta (the paper's φ).
func New() *Delta {
	return &Delta{Nodes: make(map[graph.NodeID]*graph.NodeState)}
}

// FromGraph builds a snapshot delta: the difference of the graph's state
// from the empty set (paper Example 4). States are deep-copied.
func FromGraph(g *graph.Graph) *Delta {
	d := &Delta{Nodes: make(map[graph.NodeID]*graph.NodeState, g.NumNodes())}
	g.Range(func(ns *graph.NodeState) bool {
		d.Nodes[ns.ID] = ns.Clone()
		return true
	})
	return d
}

// Put installs a component state (deep-copied by the caller if needed) and
// clears any tombstone for the id.
func (d *Delta) Put(ns *graph.NodeState) {
	d.Nodes[ns.ID] = ns
	delete(d.Tombstones, ns.ID)
}

// MarkDeleted records a tombstone for id and removes any state.
func (d *Delta) MarkDeleted(id graph.NodeID) {
	if d.Tombstones == nil {
		d.Tombstones = make(map[graph.NodeID]struct{})
	}
	d.Tombstones[id] = struct{}{}
	delete(d.Nodes, id)
}

// Size is the total number of node and edge descriptions in the delta
// (paper Definition 3).
func (d *Delta) Size() int {
	n := len(d.Tombstones)
	for _, ns := range d.Nodes {
		n += 1 + len(ns.Edges)
	}
	return n
}

// Empty reports whether the delta contains no components or tombstones.
func (d *Delta) Empty() bool { return len(d.Nodes) == 0 && len(d.Tombstones) == 0 }

// Clone returns a deep copy.
func (d *Delta) Clone() *Delta {
	out := &Delta{Nodes: make(map[graph.NodeID]*graph.NodeState, len(d.Nodes))}
	for id, ns := range d.Nodes {
		out.Nodes[id] = ns.Clone()
	}
	if len(d.Tombstones) > 0 {
		out.Tombstones = make(map[graph.NodeID]struct{}, len(d.Tombstones))
		for id := range d.Tombstones {
			out.Tombstones[id] = struct{}{}
		}
	}
	return out
}

// Equal reports whether two deltas hold exactly the same components and
// tombstones.
func (d *Delta) Equal(o *Delta) bool {
	if len(d.Nodes) != len(o.Nodes) || len(d.Tombstones) != len(o.Tombstones) {
		return false
	}
	for id, ns := range d.Nodes {
		ons, ok := o.Nodes[id]
		if !ok || !ns.Equal(ons) {
			return false
		}
	}
	for id := range d.Tombstones {
		if _, ok := o.Tombstones[id]; !ok {
			return false
		}
	}
	return true
}

// Sum implements the paper's ∆ sum (Definition 4): components present in
// both take the right operand's state; tombstones in the right operand
// delete. The receiver is mutated and returned (a+b is not commutative —
// "the order of changes" matters — and that is intentional).
func (d *Delta) Sum(o *Delta) *Delta {
	for _, ns := range o.Nodes {
		d.Put(ns.Clone())
	}
	for id := range o.Tombstones {
		d.MarkDeleted(id)
	}
	return d
}

// Diff implements the paper's ∆ difference as set difference over
// components: the result holds every component of d whose (id, state) pair
// is absent from o. No tombstones are produced. The result shares its
// states with d (no copying): mutate neither afterwards, or Clone first.
func Diff(d, o *Delta) *Delta {
	out := New()
	for id, ns := range d.Nodes {
		if ons, ok := o.Nodes[id]; !ok || !ns.Equal(ons) {
			out.Nodes[id] = ns
		}
	}
	return out
}

// Intersect implements the paper's ∆ intersection (Definition 5):
// components with equal state in both operands. The result shares its
// states with the operands (no copying): mutate none of them afterwards,
// or Clone first.
func Intersect(a, b *Delta) *Delta {
	// Iterate the smaller side.
	if len(b.Nodes) < len(a.Nodes) {
		a, b = b, a
	}
	out := New()
	for id, ns := range a.Nodes {
		if ons, ok := b.Nodes[id]; ok && ns.Equal(ons) {
			out.Nodes[id] = ns
		}
	}
	return out
}

// IntersectAll intersects one or more deltas; with a single operand it
// returns a copy of its component set. Like Intersect, the result shares
// its states with the operands. It panics on zero operands (the
// intersection of nothing is undefined).
func IntersectAll(deltas []*Delta) *Delta {
	switch len(deltas) {
	case 0:
		panic("delta: IntersectAll of zero deltas")
	case 1:
		return &Delta{Nodes: maps.Clone(deltas[0].Nodes), Tombstones: maps.Clone(deltas[0].Tombstones)}
	}
	out := Intersect(deltas[0], deltas[1])
	for _, d := range deltas[2:] {
		out = Intersect(out, d)
	}
	return out
}

// ApplyTo merges the delta's components into a mutable graph: states
// overwrite, tombstones delete. States are installed by pointer, not
// copied (Graph.PutNode): the graph shares a frozen state — every state
// the fetch layer decodes — and copies it on its first write, while an
// unfrozen state becomes the graph's, so the delta must not feed a
// second graph that is written.
func (d *Delta) ApplyTo(g *graph.Graph) {
	for _, ns := range d.Nodes {
		g.PutNode(ns)
	}
	for id := range d.Tombstones {
		g.RemoveNode(id)
	}
}

// Materialize converts the delta into an in-memory graph (valid for deltas
// that represent full snapshots, i.e. built up from a root by sums).
func (d *Delta) Materialize() *graph.Graph {
	g := graph.NewWithCapacity(len(d.Nodes))
	for _, ns := range d.Nodes {
		g.PutNode(ns.Clone())
	}
	return g
}

func (d *Delta) String() string {
	return fmt.Sprintf("delta(%d components, %d tombstones, size %d)",
		len(d.Nodes), len(d.Tombstones), d.Size())
}
