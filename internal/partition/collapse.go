package partition

import (
	"hgs/internal/graph"
	"hgs/internal/temporal"
)

// SpanNodes calls visit once for every vertex that existed at some point
// of the temporal graph defined by `initial` plus the chronological
// `events`: the initial vertices, then every vertex an event creates,
// labels, connects or removes. It is Collapse's vertex set (§4.5).
func SpanNodes(initial *graph.Graph, events []graph.Event, visit func(graph.NodeID)) {
	initial.Range(func(ns *graph.NodeState) bool {
		visit(ns.ID)
		return true
	})
	added := make(map[graph.NodeID]struct{})
	see := func(id graph.NodeID) {
		if initial.Has(id) {
			return
		}
		if _, ok := added[id]; !ok {
			added[id] = struct{}{}
			visit(id)
		}
	}
	for _, e := range events {
		switch e.Kind {
		case graph.AddNode, graph.SetNodeAttr, graph.RemoveNode:
			see(e.Node)
		case graph.AddEdge, graph.SetEdgeAttr:
			see(e.Node)
			see(e.Other)
		}
	}
}

// Collapse projects the temporal graph defined by `initial` (the state at
// iv.Start) plus the chronological `events` within iv onto a static
// weighted graph Gτ = Ω(GT) with the paper's defaults for TGI: Ω is
// union-max — every edge that existed for a positive time during iv,
// with weight 1 (input edges are unweighted) — and every node weighs 1.
// The constraint of §4.5 holds: every vertex that existed at any point
// during iv appears in the result. An edge of the initial state that the
// span's first event removes existed for no time and stays out.
func Collapse(initial *graph.Graph, events []graph.Event, iv temporal.Interval) *WeightedGraph {
	wg := NewWeightedGraph()
	SpanNodes(initial, events, func(id graph.NodeID) { wg.AddNode(id, 1) })

	// open maps each edge present now to the time it appeared.
	open := make(map[EdgePair]temporal.Time)
	openEdge := func(u, v graph.NodeID, t temporal.Time) {
		p := makePair(u, v)
		if _, ok := open[p]; !ok {
			open[p] = t
		}
	}
	closeEdge := func(p EdgePair, t temporal.Time) {
		if since, ok := open[p]; ok {
			if t > since {
				wg.AddEdge(p.U, p.V, 1)
			}
			delete(open, p)
		}
	}
	initial.Range(func(ns *graph.NodeState) bool {
		for k := range ns.Edges {
			if k.Out {
				openEdge(ns.ID, k.Other, iv.Start)
			}
		}
		return true
	})
	for _, e := range events {
		switch e.Kind {
		case graph.AddEdge, graph.SetEdgeAttr:
			openEdge(e.Node, e.Other, e.Time)
		case graph.RemoveEdge:
			closeEdge(makePair(e.Node, e.Other), e.Time)
		case graph.RemoveNode:
			for p := range open {
				if p.U == e.Node || p.V == e.Node {
					closeEdge(p, e.Time)
				}
			}
		}
	}
	for p := range open {
		closeEdge(p, iv.End)
	}
	return wg
}
