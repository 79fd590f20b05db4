package graph

import (
	"fmt"
	"maps"
	"sort"
	"sync/atomic"
)

// Graph is an in-memory snapshot: a set of node states (the paper's
// Example 4, "the state of a graph G at a time point"). It is mutable and
// not safe for concurrent writers; concurrent readers are fine. It may
// hold frozen states shared with other graphs (NodeState.Freeze): every
// mutator copies a frozen state on its first write, so writing one graph
// never changes another. The edges of its states change only through its
// methods, which keep the pair count behind Density up to date.
//
// A graph made by New or NewWithCapacity holds its states in one node
// map. A graph made by DisjointUnion holds them in one map per part, its
// shards, and keeps the function that routes an id to its shard: every
// method, lookups and writes of a new id alike, reaches node id through
// shard of(id).
type Graph struct {
	// nodes holds every node state when of is nil; it is nil otherwise.
	nodes map[NodeID]*NodeState
	// shards holds the node states when of is set: node id's in
	// shards[of(id)].
	shards []map[NodeID]*NodeState
	of     func(NodeID) int
	// sides is one more than the sum of nodeSides over the nodes, or zero
	// while unknown: the first Density counts it, and from then on every
	// mutator that adds or deletes an edge key adjusts it. It is atomic so
	// that concurrent readers may each store the count they computed.
	sides atomic.Int64
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{nodes: make(map[NodeID]*NodeState)}
}

// NewWithCapacity returns an empty graph with space for n nodes.
func NewWithCapacity(n int) *Graph {
	return &Graph{nodes: make(map[NodeID]*NodeState, n)}
}

// shard returns the node map that holds node id, or would hold it.
func (g *Graph) shard(id NodeID) map[NodeID]*NodeState {
	if g.of == nil {
		return g.nodes
	}
	return g.shards[g.of(id)]
}

// all yields every node state, shard by shard; it ranges over the graph
// like a single node map.
func (g *Graph) all(yield func(NodeID, *NodeState) bool) {
	for id, ns := range g.nodes {
		if !yield(id, ns) {
			return
		}
	}
	for _, m := range g.shards {
		for id, ns := range m {
			if !yield(id, ns) {
				return
			}
		}
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int {
	n := len(g.nodes)
	for _, m := range g.shards {
		n += len(m)
	}
	return n
}

// NumEdges returns the number of directed edges (each u->v counted once,
// even though it is stored on both endpoints).
func (g *Graph) NumEdges() int {
	n := 0
	for _, ns := range g.all {
		for k := range ns.Edges {
			if k.Out {
				n++
			}
		}
	}
	return n
}

// Node returns the state of node id, or nil if absent. The state is
// read-only — it may be frozen and shared with other graphs: change it
// through the graph's methods, or Clone it.
func (g *Graph) Node(id NodeID) *NodeState { return g.shard(id)[id] }

// Has reports whether node id exists.
func (g *Graph) Has(id NodeID) bool {
	_, ok := g.shard(id)[id]
	return ok
}

// NodeIDs returns all node ids in ascending order.
func (g *Graph) NodeIDs() []NodeID {
	out := make([]NodeID, 0, g.NumNodes())
	for id := range g.all {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Range calls f for every node state until f returns false. Iteration
// order is unspecified.
func (g *Graph) Range(f func(*NodeState) bool) {
	for _, ns := range g.all {
		if !f(ns) {
			return
		}
	}
}

// AddNode creates node id if absent and returns its state, whose Attrs
// the caller may write: a frozen state is first replaced by its copy. Its
// edges change only through the graph's methods.
func (g *Graph) AddNode(id NodeID) *NodeState {
	m := g.shard(id)
	if ns, ok := m[id]; ok {
		return g.writable(ns)
	}
	ns := NewNodeState(id)
	m[id] = ns
	return ns
}

// PutNode installs a node state wholesale, replacing any existing state
// for the same id. The graph takes ownership of ns unless it is frozen,
// in which case the graph shares it and copies it on its first write.
func (g *Graph) PutNode(ns *NodeState) {
	m := g.shard(ns.ID)
	if s := g.sides.Load(); s != 0 {
		s += int64(nodeSides(ns))
		if old, ok := m[ns.ID]; ok {
			s -= int64(nodeSides(old))
		}
		g.sides.Store(s)
	}
	m[ns.ID] = ns
}

// setEdge stores es under k in ns, a writable state of g, keeping a
// known pair count up to date.
func (g *Graph) setEdge(ns *NodeState, k EdgeKey, es *EdgeState) {
	if s := g.sides.Load(); s != 0 {
		if _, ok := ns.Edges[k]; !ok {
			g.sides.Store(s + int64(keySides(ns, k)))
		}
	}
	if ns.Edges == nil {
		ns.Edges = make(map[EdgeKey]*EdgeState)
	}
	ns.Edges[k] = es
}

// deleteEdge deletes the edge entry k, which ns holds, from ns, a state
// of g, copying ns first if it is frozen, and keeps a known pair count up
// to date.
func (g *Graph) deleteEdge(ns *NodeState, k EdgeKey) {
	ns = g.writable(ns)
	delete(ns.Edges, k)
	if s := g.sides.Load(); s != 0 {
		g.sides.Store(s - int64(keySides(ns, k)))
	}
}

// writable returns ns, a state of g, ready for writing. A frozen state is
// replaced in g by a shallow copy: the node, its attributes and its edge
// map are copied, while the edge states stay shared until writableEdge
// copies them.
func (g *Graph) writable(ns *NodeState) *NodeState {
	if !ns.frozen {
		return ns
	}
	c := &NodeState{ID: ns.ID, Attrs: ns.Attrs.Clone(), Edges: maps.Clone(ns.Edges), sharedEdges: len(ns.Edges) > 0}
	g.shard(ns.ID)[ns.ID] = c
	return c
}

// writableEdge returns the edge state under k of ns, a writable state,
// ready for writing, or nil when ns has no such edge. Edge states still
// shared with a frozen state are first replaced by copies, all of the
// node's at once and in one slab: a node's copy does not record which of
// its edge states it already owns, and edge attribute writes are rare
// next to structural ones.
func writableEdge(ns *NodeState, k EdgeKey) *EdgeState {
	es, ok := ns.Edges[k]
	if ok && ns.sharedEdges {
		copyEdges(ns.Edges, ns.Edges)
		ns.sharedEdges = false
		es = ns.Edges[k]
	}
	return es
}

// RemoveNode deletes node id and all incident edges (including the mirror
// entries on neighbors). It reports whether the node existed.
func (g *Graph) RemoveNode(id NodeID) bool {
	m := g.shard(id)
	ns, ok := m[id]
	if !ok {
		return false
	}
	if s := g.sides.Load(); s != 0 {
		g.sides.Store(s - int64(nodeSides(ns)))
	}
	for k := range ns.Edges {
		if k.Other == id {
			continue // a self-loop goes with the node
		}
		if other := g.Node(k.Other); other != nil {
			mk := EdgeKey{Other: id, Out: !k.Out}
			if _, ok := other.Edges[mk]; ok {
				g.deleteEdge(other, mk)
			}
		}
	}
	delete(m, id)
	return true
}

// DropNode deletes node id's state alone and reports whether the node
// existed: unlike RemoveNode it leaves the mirror entries its neighbors
// hold. It is PutNode's counterpart for a replay that sets each node's
// state on its own, where every neighbor's own replay removes its side.
func (g *Graph) DropNode(id NodeID) bool {
	m := g.shard(id)
	ns, ok := m[id]
	if !ok {
		return false
	}
	if s := g.sides.Load(); s != 0 {
		g.sides.Store(s - int64(nodeSides(ns)))
	}
	delete(m, id)
	return true
}

// AddEdge creates the directed edge u->v, creating the endpoints if
// needed, and returns u's side of its state (the existing state if
// already present, copied first if frozen), which the caller may write.
// When only v's side exists, as in a replay of v's own history, u's new
// side shares v's state, attributes and all.
func (g *Graph) AddEdge(u, v NodeID) *EdgeState {
	un := g.AddNode(u)
	vn := g.AddNode(v)
	if es := writableEdge(un, EdgeKey{Other: v, Out: true}); es != nil {
		return es
	}
	// The mirror entry shares the EdgeState so attribute updates via either
	// endpoint stay consistent within one in-memory graph.
	mk := EdgeKey{Other: u, Out: false}
	es := writableEdge(vn, mk)
	if es == nil {
		es = &EdgeState{}
		g.setEdge(vn, mk, es)
	}
	g.setEdge(un, EdgeKey{Other: v, Out: true}, es)
	return es
}

// RemoveEdge deletes the directed edge u->v from both endpoints and
// reports whether either side existed. The two sides are removed
// independently so that replaying an event stream onto a partially
// materialized graph (a single node or one micro-partition) still clears
// the mirror entry of the endpoint that is present.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	existed := false
	if un := g.Node(u); un != nil {
		if _, ok := un.Edges[EdgeKey{Other: v, Out: true}]; ok {
			g.deleteEdge(un, EdgeKey{Other: v, Out: true})
			existed = true
		}
	}
	if vn := g.Node(v); vn != nil {
		if _, ok := vn.Edges[EdgeKey{Other: u, Out: false}]; ok {
			g.deleteEdge(vn, EdgeKey{Other: u, Out: false})
			existed = true
		}
	}
	return existed
}

// HasEdge reports whether the directed edge u->v exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	un := g.Node(u)
	if un == nil {
		return false
	}
	_, ok := un.Edges[EdgeKey{Other: v, Out: true}]
	return ok
}

// Apply mutates the graph by one event. Unknown kinds return an error;
// structurally redundant events (adding an existing node, removing a
// missing edge) are no-ops, which makes replay idempotent at boundaries.
func (g *Graph) Apply(e Event) error {
	switch e.Kind {
	case AddNode:
		g.AddNode(e.Node)
	case RemoveNode:
		g.RemoveNode(e.Node)
	case AddEdge:
		g.AddEdge(e.Node, e.Other)
	case RemoveEdge:
		g.RemoveEdge(e.Node, e.Other)
	case SetNodeAttr:
		ns := g.AddNode(e.Node)
		if ns.Attrs == nil {
			ns.Attrs = make(Attrs)
		}
		ns.Attrs[e.Key] = e.Value
	case DelNodeAttr:
		if ns := g.Node(e.Node); ns != nil {
			if _, ok := ns.Attrs[e.Key]; ok {
				delete(g.writable(ns).Attrs, e.Key)
			}
		}
	case SetEdgeAttr, DelEdgeAttr:
		if e.Kind == SetEdgeAttr {
			g.AddEdge(e.Node, e.Other)
		}
		// Update both endpoint copies explicitly: mirror EdgeStates are
		// shared within graphs built via AddEdge but may be distinct
		// objects in graphs reconstructed from per-partition deltas.
		g.applySide(e, e.Node, EdgeKey{Other: e.Other, Out: true})
		g.applySide(e, e.Other, EdgeKey{Other: e.Node, Out: false})
	default:
		return fmt.Errorf("graph: unknown event kind %v", e.Kind)
	}
	return nil
}

// ApplySide applies e to node id's state alone, for replaying a
// micro-eventlist whose partition owns id but maybe not e's other
// endpoint: the index copies every edge event into both endpoints'
// micro-eventlists (paper §4.2), so each side replays its own copy. An
// edge event with distinct endpoints writes only id's side, into an
// EdgeState of its own, and never creates the other endpoint; node
// events and self-loops behave exactly as Apply. Like every mutator it
// copies a frozen state before its first write. id must be an endpoint
// of e.
func (g *Graph) ApplySide(e Event, id NodeID) error {
	if !e.Kind.IsEdge() || e.Node == e.Other {
		return g.Apply(e)
	}
	switch id {
	case e.Node:
		g.applySide(e, id, EdgeKey{Other: e.Other, Out: true})
	case e.Other:
		g.applySide(e, id, EdgeKey{Other: e.Node, Out: false})
	default:
		return fmt.Errorf("graph: node %d is not an endpoint of %v", id, e)
	}
	return nil
}

// applySide applies edge event e to the edge entry k of node id alone.
func (g *Graph) applySide(e Event, id NodeID, k EdgeKey) {
	var es *EdgeState
	ns := g.Node(id)
	if ns != nil {
		es = ns.Edges[k]
	}
	switch e.Kind {
	case AddEdge:
		if es == nil {
			g.addSide(id, k)
		}
	case RemoveEdge:
		if es != nil {
			g.deleteEdge(ns, k)
		}
	case SetEdgeAttr:
		if es == nil {
			es = g.addSide(id, k)
		} else {
			es = writableEdge(g.writable(ns), k)
		}
		if es.Attrs == nil {
			es.Attrs = make(Attrs)
		}
		es.Attrs[e.Key] = e.Value
	case DelEdgeAttr:
		if es == nil {
			break
		}
		if _, ok := es.Attrs[e.Key]; ok {
			delete(writableEdge(g.writable(ns), k).Attrs, e.Key)
		}
	}
}

// addSide creates edge entry k on node id, creating the node if needed,
// and returns its new EdgeState; the entry must not exist.
func (g *Graph) addSide(id NodeID, k EdgeKey) *EdgeState {
	es := &EdgeState{}
	g.setEdge(g.AddNode(id), k, es)
	return es
}

// DisjointUnion returns the graph of the node states of parts, graphs
// made by New or NewWithCapacity, where parts[i] holds exactly the nodes
// id with of(id) == i and of maps every id into [0, len(parts)). It takes
// over the parts' node maps as its shards, in O(len(parts)) and with no
// per-node work; a node the union gains later goes to shard of(id). The
// union and its parts share those maps, so they take turns: once the
// union is written, the parts must not be used again, and a part may be
// written again once nobody reads the union, after which a new union of
// the parts answers for them as they are then. The union's pair count
// is the parts' at union time: their sum when every part knows its own
// (a part's first Density counts it, and its mutators keep it), else
// unknown until the union's first Density counts it over every shard. A
// single part is returned as is.
func DisjointUnion(of func(NodeID) int, parts ...*Graph) *Graph {
	if len(parts) == 1 {
		return parts[0]
	}
	out := &Graph{shards: make([]map[NodeID]*NodeState, len(parts)), of: of}
	sides := int64(1)
	for i, p := range parts {
		if p.of != nil {
			panic("graph: DisjointUnion of a graph that is a union")
		}
		out.shards[i] = p.nodes
		if s := p.sides.Load(); s == 0 || sides == 0 {
			sides = 0
		} else {
			sides += s - 1
		}
	}
	out.sides.Store(sides)
	return out
}

// ApplyAll applies events in slice order, stopping at the first error.
func (g *Graph) ApplyAll(events []Event) error {
	for _, e := range events {
		if err := g.Apply(e); err != nil {
			return err
		}
	}
	return nil
}

// FromEvents replays a chronological event stream into a fresh graph.
func FromEvents(events []Event) (*Graph, error) {
	g := New()
	if err := g.ApplyAll(events); err != nil {
		return nil, err
	}
	return g, nil
}

// Clone returns a deep copy of the graph, with its shards and its pair
// count if known; no state of the copy is frozen.
func (g *Graph) Clone() *Graph {
	out := &Graph{nodes: cloneStates(g.nodes), of: g.of}
	for _, m := range g.shards {
		out.shards = append(out.shards, cloneStates(m))
	}
	// Restore mirror sharing of EdgeStates within the clone; an edge known
	// from one side only stays so.
	for _, ns := range out.all {
		for k, es := range ns.Edges {
			if !k.Out {
				continue
			}
			if other := out.Node(k.Other); other != nil {
				mk := EdgeKey{Other: ns.ID, Out: false}
				if _, ok := other.Edges[mk]; ok {
					other.Edges[mk] = es
				}
			}
		}
	}
	out.sides.Store(g.sides.Load())
	return out
}

// cloneStates returns a map of deep copies of m's states, or nil for a
// nil m.
func cloneStates(m map[NodeID]*NodeState) map[NodeID]*NodeState {
	if m == nil {
		return nil
	}
	out := make(map[NodeID]*NodeState, len(m))
	for id, ns := range m {
		out[id] = ns.Clone()
	}
	return out
}

// Equal reports whether two graphs hold exactly the same node states.
func (g *Graph) Equal(o *Graph) bool {
	if g.NumNodes() != o.NumNodes() {
		return false
	}
	for id, ns := range g.all {
		ons := o.Node(id)
		if ons == nil || !ns.Equal(ons) {
			return false
		}
	}
	return true
}

// Subgraph returns the subgraph induced by ids: those nodes and only the
// edges with both endpoints in ids. It writes nothing of g. A frozen
// state with every edge inside is shared as is, any other frozen state
// becomes a frozen copy of its inside edges that shares its attributes
// and edge states, and a state that is not frozen is copied deeply.
func (g *Graph) Subgraph(ids []NodeID) *Graph {
	keep := make(map[NodeID]struct{}, len(ids))
	for _, id := range ids {
		keep[id] = struct{}{}
	}
	out := NewWithCapacity(len(keep))
	for id := range keep {
		ns := g.Node(id)
		if ns == nil {
			continue
		}
		inside := 0
		for k := range ns.Edges {
			if _, in := keep[k.Other]; in {
				inside++
			}
		}
		if ns.frozen && inside == len(ns.Edges) {
			out.nodes[id] = ns
			continue
		}
		c := &NodeState{ID: id, Attrs: ns.Attrs, frozen: ns.frozen}
		if inside > 0 {
			c.Edges = make(map[EdgeKey]*EdgeState, inside)
			for k, es := range ns.Edges {
				if _, in := keep[k.Other]; in {
					c.Edges[k] = es
				}
			}
		}
		if !ns.frozen {
			c.Attrs = ns.Attrs.Clone()
			copyEdges(c.Edges, c.Edges)
		}
		out.nodes[id] = c
	}
	return out
}

// Neighbors returns the distinct neighbors of id (undirected view), or nil
// if the node is absent.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	ns := g.Node(id)
	if ns == nil {
		return nil
	}
	return ns.Neighbors()
}

// KHopIDs returns the ids within k hops of root (undirected), including
// root itself, implementing the frontier expansion of the paper's
// Algorithm 3/4 inner loop.
func (g *Graph) KHopIDs(root NodeID, k int) []NodeID {
	if !g.Has(root) {
		return nil
	}
	visited := map[NodeID]struct{}{root: {}}
	frontier := []NodeID{root}
	for hop := 0; hop < k && len(frontier) > 0; hop++ {
		var next []NodeID
		for _, id := range frontier {
			for _, nb := range g.Neighbors(id) {
				if _, seen := visited[nb]; !seen {
					visited[nb] = struct{}{}
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	out := make([]NodeID, 0, len(visited))
	for id := range visited {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KHopSubgraph returns the induced subgraph on the k-hop neighborhood of
// root (Algorithm 3: fetch snapshot then filter).
func (g *Graph) KHopSubgraph(root NodeID, k int) *Graph {
	return g.Subgraph(g.KHopIDs(root, k))
}

// Symmetrize restores mirror consistency: for every edge entry on one
// endpoint whose other endpoint is present, the counterpart entry is
// created (sharing the EdgeState) if missing, copying a frozen
// counterpart node first; a counterpart that receives an edge state of a
// frozen node treats its edge states as shared. Graphs assembled from
// independently reconstructed node states (partition fetches plus
// replicated frontier states with restricted edge lists) may know an
// edge from one side only; symmetrizing completes them.
func (g *Graph) Symmetrize() {
	for id, ns := range g.all {
		for k, es := range ns.Edges {
			other := g.Node(k.Other)
			if other == nil {
				continue
			}
			mk := EdgeKey{Other: id, Out: !k.Out}
			if _, ok := other.Edges[mk]; !ok {
				other = g.writable(other)
				g.setEdge(other, mk, es)
				other.sharedEdges = other.sharedEdges || ns.frozen || ns.sharedEdges
			}
		}
	}
}

// FilterNodes returns the induced subgraph on nodes satisfying pred.
func (g *Graph) FilterNodes(pred func(*NodeState) bool) *Graph {
	var ids []NodeID
	for id, ns := range g.all {
		if pred(ns) {
			ids = append(ids, id)
		}
	}
	return g.Subgraph(ids)
}

func (g *Graph) String() string {
	return fmt.Sprintf("graph(%d nodes, %d edges)", g.NumNodes(), g.NumEdges())
}
