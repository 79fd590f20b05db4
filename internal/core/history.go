package core

import (
	"context"
	"sort"

	"hgs/internal/fetch"
	"hgs/internal/graph"
	"hgs/internal/temporal"
)

// NodeHistory is the evolution of one node over an interval: its state at
// the interval start plus every event touching it afterwards (the result
// of Algorithm 2).
type NodeHistory struct {
	ID       graph.NodeID
	Interval temporal.Interval
	// Initial is the node state at Interval.Start, nil if the node did
	// not exist then.
	Initial *graph.NodeState
	// Events are the changes touching the node with Start < Time < End,
	// chronological.
	Events []graph.Event
}

// VersionCount returns the number of recorded changes.
func (h *NodeHistory) VersionCount() int { return len(h.Events) }

// StateAt replays the history to the node's state at time tt (which must
// lie in the history's interval); nil if the node does not exist at tt.
// The state is the caller's: the replay runs on a private clone of
// Initial, and the private graph is dropped on return.
func (h *NodeHistory) StateAt(tt temporal.Time) *graph.NodeState {
	g := graph.New()
	if h.Initial != nil {
		g.PutNode(h.Initial.Clone())
	}
	for _, e := range h.Events {
		if e.Time > tt {
			break
		}
		g.Apply(e)
	}
	return g.Node(h.ID)
}

// Versions materializes the distinct states of the node with their
// validity intervals (paper Definition 6's decomposition).
func (h *NodeHistory) Versions() []graph.Version {
	var out []graph.Version
	g := graph.New()
	if h.Initial != nil {
		g.PutNode(h.Initial.Clone())
	}
	cur := h.Interval.Start
	snapshot := func() *graph.NodeState {
		if ns := g.Node(h.ID); ns != nil {
			return ns.Clone()
		}
		return nil
	}
	prev := snapshot()
	for i := 0; i < len(h.Events); {
		tt := h.Events[i].Time
		for i < len(h.Events) && h.Events[i].Time == tt {
			g.Apply(h.Events[i])
			i++
		}
		next := snapshot()
		if !nodeStatesEqual(prev, next) {
			if prev != nil {
				out = append(out, graph.Version{State: prev, Valid: temporal.Interval{Start: cur, End: tt}})
			}
			prev = next
			cur = tt
		}
	}
	if prev != nil {
		out = append(out, graph.Version{State: prev, Valid: temporal.Interval{Start: cur, End: h.Interval.End}})
	}
	return out
}

func nodeStatesEqual(a, b *graph.NodeState) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Equal(b)
}

// overlappingSpans returns the metadata of every timespan that can hold
// a time in [from, te). Histories answer (ts, te) and pass from = ts+1;
// ChangeTimes answers [ts, te) and passes ts, so a span ending exactly
// at ts counts there (tm.End < ts is the inclusive bound).
func (t *TGI) overlappingSpans(gm *GraphMeta, from, te temporal.Time) ([]*TimespanMeta, error) {
	var out []*TimespanMeta
	for tsid := 0; tsid < gm.TimespanCount; tsid++ {
		tm, err := t.loadTimespanMeta(tsid)
		if err != nil {
			return nil, err
		}
		if tm.End < from || tm.Start >= te {
			continue
		}
		out = append(out, tm)
	}
	return out, nil
}

// versionChains fetches the version-chain rows of every member in every
// span as one batched read and calls visit with each chain found, span
// by span in member order.
func (t *TGI) versionChains(ctx context.Context, spans []*TimespanMeta, members []graph.NodeID, clients int, tr *fetch.Trace, visit func(tm *TimespanMeta, sid int, id graph.NodeID, chain []vcEntry) error) error {
	plan := fetch.NewPlan()
	for _, tm := range spans {
		for _, id := range members {
			plan.Get(TableVersions, placementKey(tm.TSID, t.sidOf(id)), nodeCKey(id))
		}
	}
	res, err := t.fx.ExecCtx(ctx, plan, clients, tr)
	if err != nil {
		return err
	}
	for _, tm := range spans {
		for _, id := range members {
			sid := t.sidOf(id)
			blob, ok := res.Get(TableVersions, placementKey(tm.TSID, sid), nodeCKey(id))
			if !ok {
				continue
			}
			chain, err := decodeVC(blob)
			if err != nil {
				return err
			}
			if err := visit(tm, sid, id, chain); err != nil {
				return err
			}
		}
	}
	return nil
}

// elRef names one micro-eventlist a history retrieval must read.
type elRef struct {
	tm           *TimespanMeta
	sid, el, pid int
}

// changedEventlists reads the members' version chains and returns
// exactly the micro-eventlists that record a change of some member
// inside (ts, te), each once however many members share it.
func (t *TGI) changedEventlists(ctx context.Context, spans []*TimespanMeta, members []graph.NodeID, ts, te temporal.Time, clients int, tr *fetch.Trace) ([]elRef, error) {
	var refs []elRef
	seen := make(map[elRef]bool)
	err := t.versionChains(ctx, spans, members, clients, tr, func(tm *TimespanMeta, sid int, id graph.NodeID, chain []vcEntry) error {
		pid := -1
		for _, e := range chain {
			changed := false
			for _, tt := range e.times {
				if tt > ts && tt < te {
					changed = true
					break
				}
			}
			if !changed {
				continue
			}
			if pid < 0 {
				var err error
				if pid, err = t.pidOf(tm, sid, id); err != nil {
					return err
				}
			}
			if ref := (elRef{tm: tm, sid: sid, el: e.el, pid: pid}); !seen[ref] {
				seen[ref] = true
				refs = append(refs, ref)
			}
		}
		return nil
	})
	return refs, err
}

// fetchHistoryEvents fetches the referenced micro-eventlists as one
// batched, cache-accounted read, filters them on the materialize-worker
// pool, and returns the chronological, deduplicated events within
// (ts, te) that keep accepts. Decoded event slices may be shared with
// the cache; filtering copies the kept events into fresh slices.
func (t *TGI) fetchHistoryEvents(ctx context.Context, refs []elRef, ts, te temporal.Time, keep func(graph.Event) bool, clients int, tr *fetch.Trace) ([]graph.Event, error) {
	plan := fetch.NewPlan()
	for _, ref := range refs {
		plan.Part(TableEvents, ref.tm.TSID, ref.sid, ref.el, ref.pid)
	}
	res, err := t.fx.ExecCtx(ctx, plan, clients, tr)
	if err != nil {
		return nil, err
	}
	lists := make([][]graph.Event, len(refs))
	tasks := make([]func() error, 0, len(refs))
	for i, ref := range refs {
		i, ref := i, ref
		tasks = append(tasks, func() error {
			part, _ := res.Part(TableEvents, ref.tm.TSID, ref.sid, ref.el, ref.pid)
			var kept []graph.Event
			for _, e := range part.Events {
				if e.Time > ts && e.Time < te && keep(e) {
					kept = append(kept, e)
				}
			}
			lists[i] = kept
			return nil
		})
	}
	if err := runParallel(ctx, t.cfg.materializeWorkers(), tasks); err != nil {
		return nil, err
	}
	return mergeSortEvents(lists), nil
}

// GetNodeHistory retrieves a node's history over [ts, te) following
// Algorithm 2: reconstruct the state at ts through the node's
// micro-partition, then use the version chains to plan exactly the
// micro-eventlists containing its changes, fetched as one batched read.
func (t *TGI) GetNodeHistory(id graph.NodeID, ts, te temporal.Time, opts *FetchOptions) (*NodeHistory, error) {
	return t.nodeHistory("node-history", id, ts, te, opts, func(ctx context.Context, spans []*TimespanMeta, clients int, tr *fetch.Trace) ([]elRef, error) {
		return t.changedEventlists(ctx, spans, []graph.NodeID{id}, ts, te, clients, tr)
	})
}

// GetNodeHistoryScan retrieves a node's history without consulting
// version chains: it plans every micro-eventlist of the node's partition
// across the overlapping timespans and filters. This is the ablation
// baseline quantifying what the Versions table buys (DESIGN.md §6).
func (t *TGI) GetNodeHistoryScan(id graph.NodeID, ts, te temporal.Time, opts *FetchOptions) (*NodeHistory, error) {
	return t.nodeHistory("node-history-scan", id, ts, te, opts, func(_ context.Context, spans []*TimespanMeta, _ int, _ *fetch.Trace) ([]elRef, error) {
		sid := t.sidOf(id)
		var refs []elRef
		for _, tm := range spans {
			pid, err := t.pidOf(tm, sid, id)
			if err != nil {
				return nil, err
			}
			for el := 0; el < tm.EventlistCount; el++ {
				if tm.eventlistOverlaps(el, ts, te) {
					refs = append(refs, elRef{tm: tm, sid: sid, el: el, pid: pid})
				}
			}
		}
		return refs, nil
	})
}

// nodeHistory is the body both node-history reads share: the state at
// ts through the node's micro-partition, then the events touching the
// node in the micro-eventlists pick chooses among the overlapping spans.
func (t *TGI) nodeHistory(op string, id graph.NodeID, ts, te temporal.Time, opts *FetchOptions,
	pick func(ctx context.Context, spans []*TimespanMeta, clients int, tr *fetch.Trace) ([]elRef, error)) (*NodeHistory, error) {
	tr, done := t.startTrace(op, opts)
	defer done()
	ctx := opts.ctx()
	gm, err := t.loadGraphMeta()
	if err != nil {
		return nil, err
	}
	initial, err := t.getNodeAt(ctx, id, ts, tr)
	if err != nil {
		return nil, err
	}
	spans, err := t.overlappingSpans(gm, ts+1, te)
	if err != nil {
		return nil, err
	}
	clients := t.cfg.clients(opts)
	refs, err := pick(ctx, spans, clients, tr)
	if err != nil {
		return nil, err
	}
	events, err := t.fetchHistoryEvents(ctx, refs, ts, te, func(e graph.Event) bool { return e.Touches(id) }, clients, tr)
	if err != nil {
		return nil, err
	}
	return &NodeHistory{ID: id, Interval: temporal.Interval{Start: ts, End: te}, Initial: initial, Events: events}, nil
}

// ChangeTimes returns the timepoints at which the node changed within
// [ts, te), read from version chains only (one batched read, no
// eventlist fetches).
func (t *TGI) ChangeTimes(id graph.NodeID, ts, te temporal.Time, opts *FetchOptions) ([]temporal.Time, error) {
	tr, done := t.startTrace("change-times", opts)
	defer done()
	gm, err := t.loadGraphMeta()
	if err != nil {
		return nil, err
	}
	spans, err := t.overlappingSpans(gm, ts, te)
	if err != nil {
		return nil, err
	}
	var out []temporal.Time
	err = t.versionChains(opts.ctx(), spans, []graph.NodeID{id}, t.cfg.clients(opts), tr, func(_ *TimespanMeta, _ int, _ graph.NodeID, chain []vcEntry) error {
		for _, e := range chain {
			for _, tt := range e.times {
				if tt >= ts && tt < te {
					out = append(out, tt)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
