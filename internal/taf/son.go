package taf

import (
	"sort"

	"hgs/internal/graph"
	"hgs/internal/sparklite"
	"hgs/internal/temporal"
)

// SONQuery is the lazy SoN builder (paper §5.2, Data Fetch): Select and
// Timeslice record the retrieval specification; Fetch ships the combined
// instructions to the TGI query planner and materializes the SoN through
// the parallel fetch protocol of Figure 10 — each query processor's
// stream becomes one RDD partition.
type SONQuery struct {
	h      *Handler
	span   temporal.Interval
	idPred func(graph.NodeID) bool
}

// SON starts a query against the handler's index.
func SON(h *Handler) *SONQuery {
	return &SONQuery{h: h, span: temporal.Always}
}

// Select restricts the SoN to node ids satisfying pred (entity-centric
// selection pushed below the fetch).
func (q *SONQuery) Select(pred func(graph.NodeID) bool) *SONQuery {
	out := *q
	out.idPred = pred
	return &out
}

// Timeslice restricts the SoN to the interval [start, end).
func (q *SONQuery) Timeslice(iv temporal.Interval) *SONQuery {
	out := *q
	out.span = iv
	return &out
}

// TimesliceAt restricts the SoN to the single timepoint tt.
func (q *SONQuery) TimesliceAt(tt temporal.Time) *SONQuery {
	return q.Timeslice(temporal.Interval{Start: tt, End: tt + 1})
}

// Fetch executes the query and returns the materialized SoN.
func (q *SONQuery) Fetch() (*SoN, error) {
	span := q.span
	if span == temporal.Always {
		lo, hi, err := q.h.tgi.TimeRange()
		if err != nil {
			return nil, err
		}
		span = temporal.Interval{Start: lo - 1, End: hi + 1}
	}
	perSid, err := q.h.tgi.FetchNodeHistories(span, q.idPred, nil)
	if err != nil {
		return nil, err
	}
	parts := make([][]*NodeT, len(perSid))
	for sid, hs := range perSid {
		parts[sid] = make([]*NodeT, len(hs))
		for i, h := range hs {
			parts[sid][i] = newNodeT(h)
		}
	}
	return &SoN{
		h:    q.h,
		span: span,
		rdd:  sparklite.FromPartitions(q.h.ctx, parts).Cache(),
	}, nil
}

// SoN is a set of temporal nodes over a common span (paper Definition 7),
// physically an RDD<NodeT>.
type SoN struct {
	h    *Handler
	span temporal.Interval
	rdd  *sparklite.RDD[*NodeT]
}

// Span returns the SoN's time range.
func (s *SoN) Span() temporal.Interval { return s.span }

// RDD exposes the underlying collection for custom pipelines.
func (s *SoN) RDD() *sparklite.RDD[*NodeT] { return s.rdd }

// Count returns the number of temporal nodes.
func (s *SoN) Count() int { return s.rdd.Count() }

// Collect returns all temporal nodes (ordered by partition, then id).
func (s *SoN) Collect() []*NodeT { return s.rdd.Collect() }

// IDs returns the sorted node ids.
func (s *SoN) IDs() []graph.NodeID {
	nts := s.rdd.Collect()
	out := make([]graph.NodeID, len(nts))
	for i, nt := range nts {
		out[i] = nt.ID()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Select filters the SoN by a predicate over temporal nodes (the
// operator keeps temporal and attribute dimensions intact).
func (s *SoN) Select(pred func(*NodeT) bool) *SoN {
	return &SoN{h: s.h, span: s.span, rdd: s.rdd.Filter(pred)}
}

// SelectAttrAt keeps nodes whose attribute key equals value at time tt —
// the common entity filter of the paper's Figure 7(b).
func (s *SoN) SelectAttrAt(key, value string, tt temporal.Time) *SoN {
	return s.Select(func(nt *NodeT) bool {
		ns := nt.StateAt(tt)
		if ns == nil {
			return false
		}
		v, ok := ns.Attr(key)
		return ok && v == value
	})
}

// Timeslice narrows every temporal node to iv.
func (s *SoN) Timeslice(iv temporal.Interval) *SoN {
	sub, ok := s.span.Intersect(iv)
	if !ok {
		sub = temporal.Interval{Start: iv.Start, End: iv.Start}
	}
	return &SoN{
		h:    s.h,
		span: sub,
		rdd:  sparklite.Map(s.rdd, func(nt *NodeT) *NodeT { return nt.Timeslice(sub) }),
	}
}

// Project trims every node's attributes to the given keys (the paper's
// Filter on the attribute dimension).
func (s *SoN) Project(keys ...string) *SoN {
	return &SoN{
		h:    s.h,
		span: s.span,
		rdd:  sparklite.Map(s.rdd, func(nt *NodeT) *NodeT { return nt.Project(keys...) }),
	}
}

// Graph materializes the in-memory graph over the SoN's nodes as of tt,
// keeping only edges whose both endpoints are in the SoN (the paper's
// Graph operator with the optional timepoint parameter). It is the
// one-point case of the forward replay behind Evolution; the returned
// graph is a deep copy, the caller's.
func (s *SoN) Graph(tt temporal.Time) *graph.Graph {
	var out *graph.Graph
	s.roll([]temporal.Time{tt}, func(_ temporal.Time, g *graph.Graph) { out = g.Clone() })
	return out
}

// roll replays the SoN forward across points, which must be ascending,
// and calls visit with the member-induced graph as of each point — the
// multipoint query of DeltaGraph: the graph at the span start is built
// once from the members' initial states, and between consecutive points
// only the events in between are applied. visit receives a view that
// shares the members' frozen initial states, and must not modify it.
//
// The replay runs as one task per RDD partition on the handler's
// workers, each on a graph of its own partition's members, and waits for
// every partition before each visit; the view is the DisjointUnion of
// the partitions' graphs, routed by the members map, which holds each
// member's partition. It equals, at every point, the induced subgraph of
// the members' own replays (NodeT.StateAt). Each member keeps a cursor
// into its own history and, at each point, replays its events up to it
// as inducedEvent says, on its own side: the SoN fetch gives an edge
// event to both endpoints' histories, so an edge between two members is
// written once from each, with no merge of the histories and no sort.
// Stored order puts a RemoveNode's edge removals before it, so a
// member's removal finds its edges already gone from its side and
// never reaches into another partition's graph.
func (s *SoN) roll(points []temporal.Time, visit func(temporal.Time, *graph.Graph)) {
	if len(points) == 0 {
		return
	}
	byPart := s.rdd.Partitions()
	n := 0
	for _, nts := range byPart {
		n += len(nts)
	}
	members := make(map[graph.NodeID]int, n)
	for p, nts := range byPart {
		for _, nt := range nts {
			members[nt.ID()] = p
		}
	}

	parts := make([]rollPart, len(byPart))
	graphs := make([]*graph.Graph, len(byPart))
	s.h.ctx.Run(len(parts), func(p int) {
		parts[p] = newRollPart(byPart[p], members)
		graphs[p] = parts[p].g
	})
	// An id outside the SoN routes to partition 0, which does not hold it.
	of := func(id graph.NodeID) int { return members[id] }
	for _, tt := range points {
		s.h.ctx.Run(len(parts), func(p int) { parts[p].advance(tt, members) })
		visit(tt, graph.DisjointUnion(of, graphs...))
	}
}

// rollPart is one RDD partition's share of the roll: its members, a
// cursor into each one's history, and the graph of their states, which
// only the partition's task writes.
type rollPart struct {
	nts  []*NodeT
	next []int
	g    *graph.Graph
}

// newRollPart builds the graph of the members nts induced by members at
// the span start, by pointer: the members' initial states are frozen
// (NodeT), so the graph copies one only when the replay first writes it.
// It counts the graph's neighbour pairs here, on the partition's worker,
// so that the views sum the partitions' counts and Density costs O(1)
// at every point.
func newRollPart(nts []*NodeT, members map[graph.NodeID]int) rollPart {
	g := graph.NewWithCapacity(len(nts))
	for _, nt := range nts {
		if init := nt.h.Initial; init != nil {
			g.PutNode(induced(init, members))
		}
	}
	g.Density()
	return rollPart{nts: nts, next: make([]int, len(nts)), g: g}
}

// advance replays every member of the partition up to tt.
func (r *rollPart) advance(tt temporal.Time, members map[graph.NodeID]int) {
	for m, nt := range r.nts {
		evs := nt.h.Events
		for ; r.next[m] < len(evs) && evs[r.next[m]].Time <= tt; r.next[m]++ {
			if e, ok := inducedEvent(evs[r.next[m]], members); ok {
				r.g.ApplySide(e, nt.ID())
			}
		}
	}
}

// induced returns frozen state ns restricted to the edges whose other
// endpoint is a member: ns itself when no edge leaves the members, else
// a frozen copy without the outside edges that shares ns's attributes
// and edge states. members maps every member to its partition.
func induced(ns *graph.NodeState, members map[graph.NodeID]int) *graph.NodeState {
	inside := 0
	for k := range ns.Edges {
		if _, ok := members[k.Other]; ok {
			inside++
		}
	}
	if inside == len(ns.Edges) {
		return ns
	}
	c := &graph.NodeState{ID: ns.ID, Attrs: ns.Attrs}
	if inside > 0 {
		c.Edges = make(map[graph.EdgeKey]*graph.EdgeState, inside)
		for k, es := range ns.Edges {
			if _, ok := members[k.Other]; ok {
				c.Edges[k] = es
			}
		}
	}
	c.Freeze()
	return c
}

// inducedEvent is the one rule for what event e does to the graph
// induced on the members: node events of a member and edge events
// between two members apply as they are (ok true), events touching no
// member do nothing (ok false). An edge event with one member endpoint
// leaves no edge in the induced graph, but adding the edge or setting
// one of its attributes still creates the member, as the member's own
// replay does, so it becomes AddNode of the member; removing the edge or
// deleting an attribute does nothing.
func inducedEvent(e graph.Event, members map[graph.NodeID]int) (graph.Event, bool) {
	_, node := members[e.Node]
	if !e.Kind.IsEdge() {
		return e, node
	}
	_, other := members[e.Other]
	if node == other {
		return e, node
	}
	if e.Kind != graph.AddEdge && e.Kind != graph.SetEdgeAttr {
		return graph.Event{}, false
	}
	id := e.Node
	if other {
		id = e.Other
	}
	return graph.Event{Time: e.Time, Kind: graph.AddNode, Node: id}, true
}

// ChangePoints returns the distinct change times across the whole SoN —
// the default timepoint selector for Compare and Evolution.
func (s *SoN) ChangePoints() []temporal.Time {
	lists := sparklite.Map(s.rdd, func(nt *NodeT) []temporal.Time { return nt.ChangePoints() }).Collect()
	seen := make(map[temporal.Time]struct{})
	for _, l := range lists {
		for _, tt := range l {
			seen[tt] = struct{}{}
		}
	}
	out := make([]temporal.Time, 0, len(seen))
	for tt := range seen {
		out = append(out, tt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
