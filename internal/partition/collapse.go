package partition

import (
	"hgs/internal/graph"
	"hgs/internal/temporal"
)

// Omega selects the time-collapsing function Ω that projects a temporal
// graph over a time span onto one static weighted graph (paper §4.5).
type Omega int

const (
	// OmegaUnionMax includes every edge that existed at any time in the
	// span with its maximum weight — the paper's default for TGI.
	OmegaUnionMax Omega = iota
	// OmegaUnionMean weighs each edge by the fraction of the span it
	// existed (time-weighted average; non-existence contributes 0).
	OmegaUnionMean
	// OmegaMedian takes the edges existing at the span's midpoint.
	OmegaMedian
)

func (o Omega) String() string {
	switch o {
	case OmegaUnionMean:
		return "union-mean"
	case OmegaMedian:
		return "median"
	default:
		return "union-max"
	}
}

// NodeWeighting selects the node-weight option for the collapsed graph.
type NodeWeighting int

const (
	// NodeWeightUniform gives every node weight 1 — the paper's default.
	NodeWeightUniform NodeWeighting = iota
	// NodeWeightDegree uses the node's degree in the collapsed graph.
	NodeWeightDegree
	// NodeWeightAvgDegree uses the time-averaged degree over the span.
	NodeWeightAvgDegree
)

func (w NodeWeighting) String() string {
	switch w {
	case NodeWeightDegree:
		return "degree"
	case NodeWeightAvgDegree:
		return "avg-degree"
	default:
		return "uniform"
	}
}

// SpanNodes calls visit once for every vertex that existed at some point
// of the temporal graph defined by `initial` plus the chronological
// `events`: the initial vertices, then every vertex an event creates,
// labels, connects or removes. It is Collapse's vertex set (§4.5),
// available without the edge bookkeeping — all random partitioning needs.
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
// weighted graph Gτ = Ω(GT). The constraint of §4.5 holds: every vertex
// that existed at any point during iv appears in the result.
func Collapse(initial *graph.Graph, events []graph.Event, iv temporal.Interval, om Omega, nw NodeWeighting) *WeightedGraph {
	wg := NewWeightedGraph()
	SpanNodes(initial, events, func(id graph.NodeID) { wg.AddNode(id, 1) })
	span := float64(iv.Duration())
	if span <= 0 {
		span = 1
	}

	// Track per-edge existence intervals to compute durations, and ensure
	// every node that ever existed is present.
	type edgeOpen struct {
		since temporal.Time
	}
	open := make(map[EdgePair]edgeOpen)
	durations := make(map[EdgePair]float64)

	openEdge := func(u, v graph.NodeID, t temporal.Time) {
		p := makePair(u, v)
		if _, ok := open[p]; !ok {
			open[p] = edgeOpen{since: t}
		}
	}
	closeEdge := func(u, v graph.NodeID, t temporal.Time) {
		p := makePair(u, v)
		if o, ok := open[p]; ok {
			durations[p] += float64(t - o.since)
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

	// Median bookkeeping: edge set at the midpoint.
	mid := iv.Midpoint()
	medianEdges := make(map[EdgePair]bool)
	snapMedian := func() {
		for p := range open {
			medianEdges[p] = true
		}
	}
	snapped := false

	for _, e := range events {
		if e.Time >= mid && !snapped {
			snapMedian()
			snapped = true
		}
		switch e.Kind {
		case graph.AddEdge, graph.SetEdgeAttr:
			openEdge(e.Node, e.Other, e.Time)
		case graph.RemoveEdge:
			closeEdge(e.Node, e.Other, e.Time)
		case graph.RemoveNode:
			// Close all its open edges.
			for p := range open {
				if p.U == e.Node || p.V == e.Node {
					durations[p] += float64(e.Time - open[p].since)
					delete(open, p)
				}
			}
		}
	}
	if !snapped {
		snapMedian()
	}
	// Close edges still open at span end.
	for p, o := range open {
		durations[p] += float64(iv.End - o.since)
	}

	switch om {
	case OmegaMedian:
		for p := range medianEdges {
			wg.AddEdge(p.U, p.V, 1)
		}
	case OmegaUnionMean:
		for p, d := range durations {
			if d > 0 {
				wg.AddEdge(p.U, p.V, d/span)
			}
		}
	default: // OmegaUnionMax: existence at any time, weight 1 (unweighted
		// input edges; with weighted inputs this would be the max weight)
		for p, d := range durations {
			if d > 0 {
				wg.AddEdge(p.U, p.V, 1)
			}
		}
	}

	switch nw {
	case NodeWeightDegree:
		deg := make(map[graph.NodeID]float64)
		for p := range wg.EdgeW {
			deg[p.U]++
			deg[p.V]++
		}
		for id := range wg.NodeW {
			wg.NodeW[id] = max(deg[id], 1)
		}
	case NodeWeightAvgDegree:
		avg := make(map[graph.NodeID]float64)
		for p, d := range durations {
			avg[p.U] += d / span
			avg[p.V] += d / span
		}
		for id := range wg.NodeW {
			wg.NodeW[id] = max(avg[id], 1)
		}
	default:
		for id := range wg.NodeW {
			wg.NodeW[id] = 1
		}
	}
	return wg
}
