package taf

import (
	"slices"
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
	perSid, err := q.h.tgi.FetchNodeHistories(span, q.idPred, q.h.fetchOpts())
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
// graph is the caller's.
func (s *SoN) Graph(tt temporal.Time) *graph.Graph {
	var out *graph.Graph
	s.roll([]temporal.Time{tt}, func(_ temporal.Time, g *graph.Graph) { out = g })
	return out
}

// roll replays the SoN forward across points, which must be ascending,
// and calls visit with the member-induced graph as of each point — the
// multipoint query of DeltaGraph: the graph at the span start is built
// once from the members' initial states, and between consecutive points
// only the events in between are applied. visit receives the one running
// graph and must not modify it; after the last point it is the caller's.
//
// The running graph equals, at every point, the induced subgraph of the
// members' own replays (NodeT.StateAt). The members' in-window events
// are merged into one stream in graph.CompareEvents order, and each is
// applied as visibility says.
func (s *SoN) roll(points []temporal.Time, visit func(temporal.Time, *graph.Graph)) {
	if len(points) == 0 {
		return
	}
	nts := s.rdd.Collect()
	members := make(map[graph.NodeID]struct{}, len(nts))
	for _, nt := range nts {
		members[nt.ID()] = struct{}{}
	}

	// The induced graph at the span start: Subgraph copies the initial
	// states it keeps, so the NodeTs' own stay untouched.
	start := graph.NewWithCapacity(len(nts))
	alive := make([]graph.NodeID, 0, len(nts))
	for _, nt := range nts {
		if init := nt.h.Initial; init != nil {
			start.PutNode(init)
			alive = append(alive, init.ID)
		}
	}
	g := start.Subgraph(alive)

	// One stream of what the members' histories change in the induced
	// graph, in the order of the original events.
	var steps []step
	for _, nt := range nts {
		id := nt.ID()
		for i := range nt.h.Events {
			e := &nt.h.Events[i]
			if visible, create := visibility(*e, id, members); visible {
				steps = append(steps, step{e: e, create: create, node: id})
			}
		}
	}
	slices.SortFunc(steps, func(a, b step) int { return graph.CompareEvents(*a.e, *b.e) })

	i := 0
	for _, tt := range points {
		for ; i < len(steps) && steps[i].e.Time <= tt; i++ {
			if steps[i].create {
				g.AddNode(steps[i].node)
			} else {
				g.Apply(*steps[i].e)
			}
		}
		visit(tt, g)
	}
}

// A step is one event of the replay stream: the event as it sorts, and
// either the event itself to apply or, with create set, AddNode(node).
type step struct {
	e      *graph.Event
	create bool
	node   graph.NodeID
}

// visibility reports whether the induced replay applies event e of
// member id's history, and whether it applies it as AddNode(id). An edge
// event between two members is taken once, from the history of its Node
// endpoint. An edge event whose other endpoint is not a member leaves no
// edge in the induced graph, but adding the edge or setting one of its
// attributes still creates the member, as the member's own replay does;
// removing it or deleting an attribute is invisible.
func visibility(e graph.Event, id graph.NodeID, members map[graph.NodeID]struct{}) (visible, create bool) {
	if !e.Kind.IsEdge() {
		return e.Node == id, false
	}
	other := e.Other
	switch id {
	case e.Node:
	case e.Other:
		other = e.Node
	default:
		return false, false
	}
	if _, ok := members[other]; ok {
		return e.Node == id, false
	}
	create = e.Kind == graph.AddEdge || e.Kind == graph.SetEdgeAttr
	return create, create
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
