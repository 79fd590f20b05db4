package core

import (
	"context"
	"sort"

	"hgs/internal/fetch"
	"hgs/internal/graph"
	"hgs/internal/temporal"
)

// FetchNodeHistories is the bulk retrieval behind the analytics
// framework's SoN fetch (paper §5.2, Figure 10): for every node selected
// by keep (nil = all), its state at iv.Start plus its events over
// (iv.Start, iv.End), returned grouped by horizontal partition so each
// TGI query processor's stream lands directly in one analytics-engine
// partition without funnelling through a coordinator. The histories'
// initial states are frozen and may be shared with the fetch cache:
// read them, or Clone one to change it.
func (t *TGI) FetchNodeHistories(iv temporal.Interval, keep func(graph.NodeID) bool, opts *FetchOptions) ([][]*NodeHistory, error) {
	tr, done := t.startTrace("son-fetch", opts)
	defer done()
	gm, err := t.loadGraphMeta()
	if err != nil {
		return nil, err
	}
	ctx := opts.ctx()
	ns := t.cfg.HorizontalPartitions
	out := make([][]*NodeHistory, ns)
	if err := fetch.ParallelCtx(ctx, t.cfg.clients(opts), ns, func(sid int) error {
		histories, err := t.fetchSidHistories(ctx, gm, sid, iv, keep, tr)
		out[sid] = histories
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// fetchSidHistories runs one query processor's share of a SoN fetch.
func (t *TGI) fetchSidHistories(ctx context.Context, gm *GraphMeta, sid int, iv temporal.Interval, keep func(graph.NodeID) bool, tr *fetch.Trace) ([]*NodeHistory, error) {
	owned := func(id graph.NodeID) bool {
		return t.sidOf(id) == sid && (keep == nil || keep(id))
	}

	// 1. Initial states: the sid's partitioned snapshot at iv.Start.
	init, err := t.fetchSidSnapshot(ctx, sid, iv.Start, tr)
	if err != nil {
		return nil, err
	}

	// 2. Events over the window: plan every in-window eventlist of the
	// sid as one batched, cache-accounted eventlist-group read, then
	// window, deduplicate and group per node. Cached event slices are
	// shared read-only; windowing filters into fresh slices.
	spans, err := t.overlappingSpans(gm, iv.Start+1, iv.End)
	if err != nil {
		return nil, err
	}
	plan := fetch.NewPlan()
	for _, tm := range spans {
		for el := 0; el < tm.EventlistCount; el++ {
			if tm.eventlistOverlaps(el, iv.Start, iv.End) {
				plan.Group(TableEvents, tm.TSID, sid, el)
			}
		}
	}
	res, err := t.fx.ExecCtx(ctx, plan, 1, tr)
	if err != nil {
		return nil, err
	}
	var lists [][]graph.Event
	for _, tm := range spans {
		for el := 0; el < tm.EventlistCount; el++ {
			// Out-of-window eventlists were not planned and hold no parts.
			for _, part := range res.Group(TableEvents, tm.TSID, sid, el) {
				var win []graph.Event
				for _, e := range part.Events {
					if e.Time > iv.Start && e.Time < iv.End {
						win = append(win, e)
					}
				}
				lists = append(lists, win)
			}
		}
	}
	merged := mergeSortEvents(lists)
	perNode := make(map[graph.NodeID][]graph.Event)
	for _, e := range merged {
		if owned(e.Node) {
			perNode[e.Node] = append(perNode[e.Node], e)
		}
		if e.Kind.IsEdge() && e.Other != e.Node && owned(e.Other) {
			perNode[e.Other] = append(perNode[e.Other], e)
		}
	}

	// 3. Assemble temporal nodes: anything alive at the start or touched
	// during the window.
	ids := make(map[graph.NodeID]struct{})
	init.Range(func(nsn *graph.NodeState) bool {
		if owned(nsn.ID) {
			ids[nsn.ID] = struct{}{}
		}
		return true
	})
	for id := range perNode {
		ids[id] = struct{}{}
	}
	ordered := make([]graph.NodeID, 0, len(ids))
	for id := range ids {
		ordered = append(ordered, id)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	histories := make([]*NodeHistory, 0, len(ordered))
	for _, id := range ordered {
		h := &NodeHistory{ID: id, Interval: iv, Events: perNode[id]}
		if nsn := init.Node(id); nsn != nil {
			// Shared, not copied: the state is frozen cache state or the
			// replay's own copy in init, which is dropped on return.
			nsn.Freeze()
			h.Initial = nsn
		}
		histories = append(histories, h)
	}
	return histories, nil
}

// fetchSidSnapshot reconstructs one horizontal partition's state at tt
// (the per-sid slice of Algorithm 1) as its own batched plan,
// cache-served where hot.
func (t *TGI) fetchSidSnapshot(ctx context.Context, sid int, tt temporal.Time, tr *fetch.Trace) (*graph.Graph, error) {
	tm, err := t.timespanFor(tt)
	if err != nil {
		return nil, err
	}
	leaf := tm.leafFor(tt)
	plan := fetch.NewPlan()
	planSnapshot(plan, tm, sid, leaf)
	res, err := t.fx.ExecCtx(ctx, plan, 1, tr)
	if err != nil {
		return nil, err
	}
	return t.assembleSnapshot(res, tm, sid, leaf, tt)
}
