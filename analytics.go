package hgs

import (
	"hgs/internal/taf"
)

// Analytics is a Temporal Graph Analysis Framework session bound to a
// store (paper §5). It exposes the SoN/SoTS query builders and the
// temporal operator library; the generic operators (NodeCompute,
// Compare, Evolution, ...) live in this package as functions because
// they are parameterized by result type.
type Analytics struct {
	h *taf.Handler
}

// Re-exported analytics types.
type (
	// NodeT is a temporal node: one node's states over a time range.
	NodeT = taf.NodeT
	// SubgraphT is a temporal subgraph (k-hop neighborhood over time).
	SubgraphT = taf.SubgraphT
	// SoN is a set of temporal nodes (an RDD<NodeT>).
	SoN = taf.SoN
	// SoTS is a set of temporal subgraphs (an RDD<SubgraphT>).
	SoTS = taf.SoTS
	// Series is a scalar timeseries with the temporal aggregations
	// (Max, Min, Mean, Peaks, Saturate).
	Series = taf.Series
	// CompareRow is one (node-id, difference) result of Compare.
	CompareRow = taf.CompareRow
)

// Timed is one sampled value at a timepoint.
type Timed[V any] = taf.Timed[V]

// Handler exposes the underlying TAF handler.
func (a *Analytics) Handler() *taf.Handler { return a.h }

// SON starts a set-of-temporal-nodes query.
func (a *Analytics) SON() *taf.SONQuery { return taf.SON(a.h) }

// SOTS starts a set-of-temporal-subgraphs query with radius k.
func (a *Analytics) SOTS(k int) *taf.SOTSQuery { return taf.SOTS(a.h, k) }

// NodeCompute applies f to every temporal node of the SoN.
func NodeCompute[V any](s *SoN, f func(*NodeT) V) []V { return taf.NodeCompute(s, f) }

// NodeComputeKV applies f to every temporal node, keyed by node id.
func NodeComputeKV[V any](s *SoN, f func(*NodeT) V) map[NodeID]V {
	return taf.NodeComputeKV(s, f)
}

// SubgraphCompute applies f to every temporal subgraph of the SoTS.
func SubgraphCompute[V any](s *SoTS, f func(*SubgraphT) V) []V {
	return taf.SubgraphCompute(s, f)
}

// SubgraphComputeKV applies f to every temporal subgraph, keyed by root.
func SubgraphComputeKV[V any](s *SoTS, f func(*SubgraphT) V) map[NodeID]V {
	return taf.SubgraphComputeKV(s, f)
}

// NodeComputeTemporal evaluates f afresh on every version of every node.
func NodeComputeTemporal[V any](s *SoN, f func(*NodeState) V, at taf.TimepointsFunc) map[NodeID][]Timed[V] {
	return taf.NodeComputeTemporal(s, f, at)
}

// SubgraphComputeTemporal evaluates f afresh on every version of every
// subgraph (the O(N·T) baseline of Figure 17).
func SubgraphComputeTemporal[V any](s *SoTS, f func(*Graph) V, at taf.SubgraphTimepointsFunc) map[NodeID][]Timed[V] {
	return taf.SubgraphComputeTemporal(s, f, at)
}

// SubgraphComputeDelta evaluates a quantity incrementally: f on the
// initial state, fd folding each event into the value (paper operator 6).
func SubgraphComputeDelta[V any](s *SoTS, f func(*Graph) (V, any), fd taf.DeltaFunc[V]) map[NodeID][]Timed[V] {
	return taf.SubgraphComputeDelta(s, f, fd)
}

// Compare evaluates f over two SoNs and returns per-node differences.
func Compare(a, b *SoN, f func(*NodeT) float64) []CompareRow { return taf.Compare(a, b, f) }

// CompareAt diffs f over one SoN's timeslices at two timepoints.
func CompareAt(s *SoN, f func(*NodeState) float64, t1, t2 Time) []CompareRow {
	return taf.CompareAt(s, f, t1, t2)
}

// Evolution samples a graph-level quantity over the SoN's span at n
// evenly spaced timepoints (or the explicit points), chronologically.
// One graph is rolled forward across the sorted points and handed to
// quantity at each, so quantity must only read it (every Graph metric
// does) and must not keep it.
func Evolution(s *SoN, quantity func(*Graph) float64, n int, points []Time) Series {
	return taf.Evolution(s, quantity, n, points)
}

// AliveCountSeries samples SoN membership over time.
func AliveCountSeries(s *SoN, points []Time) Series { return taf.AliveCountSeries(s, points) }

// EvenTimepoints returns n evenly spaced timepoints over iv.
func EvenTimepoints(iv Interval, n int) []Time { return taf.EvenTimepoints(iv, n) }

// Density, AvgDegree and friends are methods on *Graph (see the graph
// metrics library); GraphDensity is re-exported as a convenience for use
// with Evolution.
func GraphDensity(g *Graph) float64 { return g.Density() }

// GraphAvgDegree samples the mean degree, for Evolution.
func GraphAvgDegree(g *Graph) float64 { return g.AvgDegree() }

// GraphTriangles counts triangles, for Evolution.
func GraphTriangles(g *Graph) float64 { return float64(g.TriangleCount()) }

// NodeDegreeAt returns a NodeCompute function sampling degree at tt.
func NodeDegreeAt(tt Time) func(*NodeT) float64 {
	return func(nt *NodeT) float64 {
		ns := nt.StateAt(tt)
		if ns == nil {
			return 0
		}
		return float64(ns.Degree())
	}
}
