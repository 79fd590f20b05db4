package core

import (
	"slices"

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
//
// The whole fetch is one plan, executed once: every partition's
// snapshot at iv.Start (planSnapshot) and every micro-eventlist group
// overlapping the window, so the boundary eventlist the two share is
// read once. Then each partition, on the materialize workers, assembles
// its initial states and splits its micro-eventlists into per-node
// histories. The build copies an edge event into both endpoints'
// micro-eventlists (§4.2), so a node's own list holds its whole history
// in stored order: each event goes to the endpoints the list's part
// owns, and no list is merged or sorted. Stored order keeps a
// RemoveNode's expansion (graph.ExpandRemoveNode) in front of it, which
// a per-side replay needs.
func (t *TGI) FetchNodeHistories(iv temporal.Interval, keep func(graph.NodeID) bool, opts *FetchOptions) ([][]*NodeHistory, error) {
	tr, done := t.startTrace("son-fetch", opts)
	defer done()
	gm, err := t.loadGraphMeta()
	if err != nil {
		return nil, err
	}
	tm, err := t.timespanFor(iv.Start)
	if err != nil {
		return nil, err
	}
	leaf := tm.leafFor(iv.Start)
	spans, err := t.overlappingSpans(gm, iv.Start+1, iv.End)
	if err != nil {
		return nil, err
	}
	ns := t.cfg.HorizontalPartitions
	plan := fetch.NewPlan()
	for sid := 0; sid < ns; sid++ {
		planSnapshot(plan, tm, sid, leaf)
		for _, sp := range spans {
			for el := 0; el < sp.EventlistCount; el++ {
				if sp.eventlistOverlaps(el, iv.Start, iv.End) {
					plan.Group(TableEvents, sp.TSID, sid, el)
				}
			}
		}
	}
	ctx := opts.ctx()
	res, err := t.fx.ExecCtx(ctx, plan, t.cfg.clients(opts), tr)
	if err != nil {
		return nil, err
	}
	kept := func(id graph.NodeID) bool { return keep == nil || keep(id) }
	out := make([][]*NodeHistory, ns)
	err = fetch.ParallelCtx(ctx, t.cfg.materializeWorkers(), ns, func(sid int) error {
		init, err := t.assembleSnapshot(res, tm, sid, leaf, iv.Start)
		if err != nil {
			return err
		}
		perNode := make(map[graph.NodeID][]graph.Event)
		for _, sp := range spans {
			o, err := t.ownerOf(sp, sid)
			if err != nil {
				return err
			}
			for el := 0; el < sp.EventlistCount; el++ {
				// Out-of-window eventlists were not planned and hold no
				// parts. Cached event slices are shared read-only; the
				// histories get fresh slices.
				for _, part := range res.Group(TableEvents, sp.TSID, sid, el) {
					for _, e := range part.Events {
						if e.Time <= iv.Start {
							continue
						}
						if e.Time >= iv.End {
							break
						}
						if o.owns(e.Node, part.PID) && kept(e.Node) {
							perNode[e.Node] = append(perNode[e.Node], e)
						}
						if e.Kind.IsEdge() && e.Other != e.Node && o.owns(e.Other, part.PID) && kept(e.Other) {
							perNode[e.Other] = append(perNode[e.Other], e)
						}
					}
				}
			}
		}

		// Anything alive at the start or touched during the window.
		ids := make([]graph.NodeID, 0, init.NumNodes()+len(perNode))
		init.Range(func(nsn *graph.NodeState) bool {
			if kept(nsn.ID) {
				ids = append(ids, nsn.ID)
			}
			return true
		})
		for id := range perNode {
			if !init.Has(id) {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		histories := make([]*NodeHistory, len(ids))
		for i, id := range ids {
			h := &NodeHistory{ID: id, Interval: iv, Events: perNode[id]}
			if nsn := init.Node(id); nsn != nil {
				// Shared, not copied: the state is frozen cache state or
				// the replay's own copy in init, which is dropped on
				// return.
				nsn.Freeze()
				h.Initial = nsn
			}
			histories[i] = h
		}
		out[sid] = histories
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
