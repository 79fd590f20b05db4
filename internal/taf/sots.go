package taf

import (
	"sort"

	"hgs/internal/core"
	"hgs/internal/graph"
	"hgs/internal/sparklite"
	"hgs/internal/temporal"
)

// SubgraphT is a temporal subgraph (paper §5.1): the states of a k-hop
// neighborhood over a time range, stored as the initial subgraph plus
// chronological events over its members.
type SubgraphT struct {
	sh *core.SubgraphHistory
}

// newSubgraphT wraps a fetched subgraph history.
func newSubgraphT(sh *core.SubgraphHistory) *SubgraphT { return &SubgraphT{sh: sh} }

// Root returns the neighborhood's center node.
func (st *SubgraphT) Root() graph.NodeID { return st.sh.Root }

// Span returns the covered time range.
func (st *SubgraphT) Span() temporal.Interval { return st.sh.Interval }

// StateAt materializes the subgraph as of tt (paper: getVersionAt,
// returning an in-memory Graph object).
func (st *SubgraphT) StateAt(tt temporal.Time) *graph.Graph { return st.sh.StateAt(tt) }

// Members returns the tracked node set.
func (st *SubgraphT) Members() []graph.NodeID { return st.sh.Members }

// ChangePoints returns the distinct times at which the subgraph changed.
func (st *SubgraphT) ChangePoints() []temporal.Time { return st.sh.ChangePoints() }

// Events returns the raw change stream over the members.
func (st *SubgraphT) Events() []graph.Event { return st.sh.Events }

// SOTSQuery is the lazy SoTS builder: k-hop neighborhoods around a root
// set over a timeslice.
type SOTSQuery struct {
	h     *Handler
	k     int
	span  temporal.Interval
	roots []graph.NodeID
	pred  func(graph.NodeID) bool
}

// SOTS starts a set-of-temporal-subgraphs query with neighborhood radius
// k (the paper's SOTS(k=1, tgiH)).
func SOTS(h *Handler, k int) *SOTSQuery {
	return &SOTSQuery{h: h, k: max(k, 1), span: temporal.Always}
}

// Roots fixes the subgraph centers explicitly.
func (q *SOTSQuery) Roots(ids ...graph.NodeID) *SOTSQuery {
	out := *q
	out.roots = append([]graph.NodeID(nil), ids...)
	return &out
}

// Select restricts the subgraph centers by predicate (applied to the
// nodes alive at the timeslice start when no explicit roots are given).
func (q *SOTSQuery) Select(pred func(graph.NodeID) bool) *SOTSQuery {
	out := *q
	out.pred = pred
	return &out
}

// Timeslice restricts the SoTS to [start, end).
func (q *SOTSQuery) Timeslice(iv temporal.Interval) *SOTSQuery {
	out := *q
	out.span = iv
	return &out
}

// TimesliceAt restricts the SoTS to a single timepoint.
func (q *SOTSQuery) TimesliceAt(tt temporal.Time) *SOTSQuery {
	return q.Timeslice(temporal.Interval{Start: tt, End: tt + 1})
}

// Fetch materializes the SoTS. Point timeslices over all nodes are
// planned as one snapshot fetch partitioned locally; interval or
// selective queries fetch per-root neighborhood histories in parallel.
func (q *SOTSQuery) Fetch() (*SoTS, error) {
	span := q.span
	if span == temporal.Always {
		lo, hi, err := q.h.tgi.TimeRange()
		if err != nil {
			return nil, err
		}
		span = temporal.Interval{Start: lo - 1, End: hi + 1}
	}
	roots := q.roots
	if roots == nil {
		// Roots default to every node alive at the span start.
		g, err := q.h.tgi.GetSnapshot(span.Start, nil)
		if err != nil {
			return nil, err
		}
		if span.Duration() <= 1 {
			// Point timeslice: the snapshot already holds all states; cut
			// neighborhoods locally (the query-planner fast path).
			return sotsFromSnapshot(q.h, g, q.k, span, q.pred), nil
		}
		for _, id := range g.NodeIDs() {
			if q.pred == nil || q.pred(id) {
				roots = append(roots, id)
			}
		}
	} else if q.pred != nil {
		kept := roots[:0]
		for _, id := range roots {
			if q.pred(id) {
				kept = append(kept, id)
			}
		}
		roots = kept
	}
	// Interval fetch: per-root k-hop histories, parallelized on the
	// compute cluster; each worker talks to the index directly.
	rdd := sparklite.Parallelize(q.h.ctx, roots, q.h.ctx.Workers())
	sts := sparklite.Map(rdd, func(id graph.NodeID) *SubgraphT {
		sh, err := q.h.tgi.GetKHopHistory(id, q.k, span.Start, span.End, &core.FetchOptions{Clients: 1})
		if err != nil {
			return nil
		}
		return newSubgraphT(sh)
	}).Filter(func(st *SubgraphT) bool { return st != nil })
	return &SoTS{h: q.h, k: q.k, span: span, rdd: sts.Cache()}, nil
}

// sotsFromSnapshot cuts point-in-time k-hop subgraphs out of one fetched
// snapshot.
func sotsFromSnapshot(h *Handler, g *graph.Graph, k int, span temporal.Interval, pred func(graph.NodeID) bool) *SoTS {
	var roots []graph.NodeID
	for _, id := range g.NodeIDs() {
		if pred == nil || pred(id) {
			roots = append(roots, id)
		}
	}
	rdd := sparklite.Parallelize(h.ctx, roots, h.ctx.Workers())
	sts := sparklite.Map(rdd, func(id graph.NodeID) *SubgraphT {
		sub := g.KHopSubgraph(id, k)
		return newSubgraphT(&core.SubgraphHistory{
			Root:     id,
			K:        k,
			Interval: span,
			Initial:  sub,
			Members:  sub.NodeIDs(),
		})
	})
	return &SoTS{h: h, k: k, span: span, rdd: sts.Cache()}
}

// NewSoTSFromHistories wraps pre-fetched (or synthetically truncated)
// subgraph histories as a SoTS — used by benchmarks and tests that need
// precise control over the version streams.
func NewSoTSFromHistories(h *Handler, k int, span temporal.Interval, hs []*core.SubgraphHistory) *SoTS {
	sts := make([]*SubgraphT, len(hs))
	for i, sh := range hs {
		sts[i] = newSubgraphT(sh)
	}
	return &SoTS{h: h, k: k, span: span, rdd: sparklite.Parallelize(h.ctx, sts, h.ctx.Workers()).Cache()}
}

// SoTS is a set of temporal subgraphs, physically an RDD<SubgraphT>.
type SoTS struct {
	h    *Handler
	k    int
	span temporal.Interval
	rdd  *sparklite.RDD[*SubgraphT]
}

// Span returns the SoTS time range.
func (s *SoTS) Span() temporal.Interval { return s.span }

// K returns the neighborhood radius.
func (s *SoTS) K() int { return s.k }

// RDD exposes the underlying collection.
func (s *SoTS) RDD() *sparklite.RDD[*SubgraphT] { return s.rdd }

// Count returns the number of temporal subgraphs.
func (s *SoTS) Count() int { return s.rdd.Count() }

// Collect returns all temporal subgraphs.
func (s *SoTS) Collect() []*SubgraphT { return s.rdd.Collect() }

// Select filters by a predicate over temporal subgraphs.
func (s *SoTS) Select(pred func(*SubgraphT) bool) *SoTS {
	return &SoTS{h: s.h, k: s.k, span: s.span, rdd: s.rdd.Filter(pred)}
}

// Roots returns the sorted root ids.
func (s *SoTS) Roots() []graph.NodeID {
	sts := s.rdd.Collect()
	out := make([]graph.NodeID, len(sts))
	for i, st := range sts {
		out[i] = st.Root()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
