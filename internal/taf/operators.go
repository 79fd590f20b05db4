package taf

import (
	"slices"
	"sort"

	"hgs/internal/graph"
	"hgs/internal/sparklite"
	"hgs/internal/temporal"
)

// This file implements the temporal operator library of paper §5.1:
// NodeCompute (map), NodeComputeTemporal (per-version map),
// NodeComputeDelta (incremental map), Compare, Evolution. Selection,
// Timeslice, Graph and the aggregations live on SoN/SoTS and Series.

// NodeCompute applies f to every temporal node and returns the results
// (paper operator 4, the map over an SoN).
func NodeCompute[V any](s *SoN, f func(*NodeT) V) []V {
	return sparklite.Map(s.rdd, f).Collect()
}

// NodeComputeKV is NodeCompute keyed by node id.
func NodeComputeKV[V any](s *SoN, f func(*NodeT) V) map[graph.NodeID]V {
	type kv struct {
		id graph.NodeID
		v  V
	}
	rows := sparklite.Map(s.rdd, func(nt *NodeT) kv { return kv{nt.ID(), f(nt)} }).Collect()
	out := make(map[graph.NodeID]V, len(rows))
	for _, r := range rows {
		out[r.id] = r.v
	}
	return out
}

// SubgraphCompute applies f to every temporal subgraph (the SoTS map).
func SubgraphCompute[V any](s *SoTS, f func(*SubgraphT) V) []V {
	return sparklite.Map(s.rdd, f).Collect()
}

// SubgraphComputeKV is SubgraphCompute keyed by root id.
func SubgraphComputeKV[V any](s *SoTS, f func(*SubgraphT) V) map[graph.NodeID]V {
	type kv struct {
		id graph.NodeID
		v  V
	}
	rows := sparklite.Map(s.rdd, func(st *SubgraphT) kv { return kv{st.Root(), f(st)} }).Collect()
	out := make(map[graph.NodeID]V, len(rows))
	for _, r := range rows {
		out[r.id] = r.v
	}
	return out
}

// TimepointsFunc selects the evaluation timepoints for a temporal node;
// nil means all of its change points (the paper's default).
type TimepointsFunc func(*NodeT) []temporal.Time

// NodeComputeTemporal evaluates f on every state (version) of every node
// (paper operator 5): fresh evaluation at each selected timepoint.
func NodeComputeTemporal[V any](s *SoN, f func(*graph.NodeState) V, at TimepointsFunc) map[graph.NodeID][]Timed[V] {
	type row struct {
		id  graph.NodeID
		out []Timed[V]
	}
	rows := sparklite.Map(s.rdd, func(nt *NodeT) row {
		times := nt.ChangePoints()
		if at != nil {
			times = at(nt)
		}
		out := make([]Timed[V], 0, len(times))
		for _, tt := range times {
			out = append(out, Timed[V]{Time: tt, Value: f(nt.StateAt(tt))})
		}
		return row{nt.ID(), out}
	}).Collect()
	res := make(map[graph.NodeID][]Timed[V], len(rows))
	for _, r := range rows {
		res[r.id] = r.out
	}
	return res
}

// SubgraphTimepointsFunc selects evaluation timepoints for a temporal
// subgraph; nil means all of its change points.
type SubgraphTimepointsFunc func(*SubgraphT) []temporal.Time

// SubgraphComputeTemporal evaluates f afresh on every selected version of
// every subgraph — the O(N·T) baseline that NodeComputeDelta improves on
// (paper §5.2, Figure 8a).
func SubgraphComputeTemporal[V any](s *SoTS, f func(*graph.Graph) V, at SubgraphTimepointsFunc) map[graph.NodeID][]Timed[V] {
	type row struct {
		id  graph.NodeID
		out []Timed[V]
	}
	rows := sparklite.Map(s.rdd, func(st *SubgraphT) row {
		times := st.ChangePoints()
		if at != nil {
			times = at(st)
		}
		out := make([]Timed[V], 0, len(times))
		for _, tt := range times {
			out = append(out, Timed[V]{Time: tt, Value: f(st.StateAt(tt))})
		}
		return row{st.Root(), out}
	}).Collect()
	res := make(map[graph.NodeID][]Timed[V], len(rows))
	for _, r := range rows {
		res[r.id] = r.out
	}
	return res
}

// DeltaFunc updates a computed quantity for one event (paper operator 6):
// it receives the subgraph state BEFORE the event, the auxiliary
// structure, the current value, and the event, and returns the updated
// value and auxiliary structure.
type DeltaFunc[V any] func(before *graph.Graph, aux any, val V, e graph.Event) (V, any)

// SubgraphComputeDelta evaluates a quantity incrementally over every
// subgraph's versions (paper operator 6, Figure 8b): f computes the
// quantity (and optional auxiliary index) on the initial state; fd folds
// each event into the value in O(1)-ish work instead of recomputing. One
// value is emitted per change point, matching SubgraphComputeTemporal's
// default output for direct comparison (Figure 17).
func SubgraphComputeDelta[V any](s *SoTS, f func(*graph.Graph) (V, any), fd DeltaFunc[V]) map[graph.NodeID][]Timed[V] {
	type row struct {
		id  graph.NodeID
		out []Timed[V]
	}
	rows := sparklite.Map(s.rdd, func(st *SubgraphT) row {
		running := st.StateAt(st.Span().Start) // initial members-induced state
		val, aux := f(running)
		// Only changes visible in the member-induced subgraph update the
		// running state: edges must have both endpoints inside, node
		// changes must hit members. This keeps `running` identical to
		// StateAt(t) at every step, so fd's before-state is exact.
		members := make(map[graph.NodeID]struct{}, len(st.Members()))
		for _, m := range st.Members() {
			members[m] = struct{}{}
		}
		visible := func(e graph.Event) bool {
			if _, ok := members[e.Node]; !ok {
				return false
			}
			if e.Kind.IsEdge() {
				_, ok := members[e.Other]
				return ok
			}
			return true
		}
		events := st.Events()
		var out []Timed[V]
		for i := 0; i < len(events); {
			tt := events[i].Time
			for i < len(events) && events[i].Time == tt {
				if visible(events[i]) {
					val, aux = fd(running, aux, val, events[i])
					running.Apply(events[i])
				}
				i++
			}
			out = append(out, Timed[V]{Time: tt, Value: val})
		}
		return row{st.Root(), out}
	}).Collect()
	res := make(map[graph.NodeID][]Timed[V], len(rows))
	for _, r := range rows {
		res[r.id] = r.out
	}
	return res
}

// CompareRow is one (node-id, difference) result of Compare.
type CompareRow struct {
	ID   graph.NodeID
	A, B float64
	Diff float64 // A - B
}

// Compare evaluates f over the components of two SoNs and returns the
// per-node differences (paper operator 7). Nodes appearing on one side
// only contribute with the other side's value as zero.
func Compare(a, b *SoN, f func(*NodeT) float64) []CompareRow {
	av := NodeComputeKV(a, f)
	bv := NodeComputeKV(b, f)
	ids := make(map[graph.NodeID]struct{}, len(av)+len(bv))
	for id := range av {
		ids[id] = struct{}{}
	}
	for id := range bv {
		ids[id] = struct{}{}
	}
	out := make([]CompareRow, 0, len(ids))
	for id := range ids {
		row := CompareRow{ID: id, A: av[id], B: bv[id]}
		row.Diff = row.A - row.B
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CompareAt is the paper's single-SoN variation: evaluate f on the
// timeslices of one SoN at two timepoints and diff per node.
func CompareAt(s *SoN, f func(*graph.NodeState) float64, t1, t2 temporal.Time) []CompareRow {
	type pair struct {
		id   graph.NodeID
		a, b float64
	}
	rows := sparklite.Map(s.rdd, func(nt *NodeT) pair {
		var a, b float64
		if ns := nt.StateAt(t1); ns != nil {
			a = f(ns)
		}
		if ns := nt.StateAt(t2); ns != nil {
			b = f(ns)
		}
		return pair{nt.ID(), a, b}
	}).Collect()
	out := make([]CompareRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, CompareRow{ID: r.id, A: r.a, B: r.b, Diff: r.a - r.b})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Evolution samples a graph-level quantity over the SoN's span (paper
// operator 8). With points == nil the quantity is sampled at n evenly
// spaced timepoints. The SoN is rolled forward once across the sorted
// points (SoN.Graph is the one-point case), so quantity receives the one
// running graph: it must only read it and must not keep it.
func Evolution(s *SoN, quantity func(*graph.Graph) float64, n int, points []temporal.Time) Series {
	if points == nil {
		points = EvenTimepoints(s.span, n)
	}
	return s.series(points, quantity)
}

// AliveCountSeries samples how many SoN members exist at each timepoint
// (the membership-count comparison of paper Figure 7b).
func AliveCountSeries(s *SoN, points []temporal.Time) Series {
	if points == nil {
		points = EvenTimepoints(s.span, 10)
	}
	return s.series(points, func(g *graph.Graph) float64 { return float64(g.NumNodes()) })
}

// series samples f on the SoN rolled forward across the sorted points.
func (s *SoN) series(points []temporal.Time, f func(*graph.Graph) float64) Series {
	points = slices.Clone(points)
	slices.Sort(points)
	out := make(Series, 0, len(points))
	s.roll(points, func(tt temporal.Time, g *graph.Graph) {
		out = append(out, Timed[float64]{Time: tt, Value: f(g)})
	})
	return out
}
