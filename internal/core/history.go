package core

import (
	"cmp"
	"context"
	"runtime"
	"slices"
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
	// not exist then. GetNodeHistory's is the caller's; the SoN fetch's
	// (FetchNodeHistories) is frozen, shared read-only.
	Initial *graph.NodeState
	// Events are the changes touching the node with Start < Time < End,
	// chronological. Within one time they keep stored order, which puts
	// a RemoveNode's edge removals before it.
	Events []graph.Event
}

// VersionCount returns the number of recorded changes.
func (h *NodeHistory) VersionCount() int { return len(h.Events) }

// StateAt replays the history to the node's state at time tt (which must
// lie in the history's interval); nil if the node does not exist at tt.
// It is the one-point case of StatesAt, and the state is the caller's.
func (h *NodeHistory) StateAt(tt temporal.Time) *graph.NodeState {
	return h.StatesAt([]temporal.Time{tt})[0]
}

// StatesAt returns the node's state at each of the points (in any order,
// repeats allowed, each in the history's interval), nil where the node
// does not exist, from one forward replay of the events. Every state is
// the caller's: the replay runs on a private clone of Initial, and each
// point gets its own copy.
func (h *NodeHistory) StatesAt(points []temporal.Time) []*graph.NodeState {
	g := graph.New()
	if h.Initial != nil {
		g.PutNode(h.Initial.Clone())
	}
	out := make([]*graph.NodeState, len(points))
	roll(g, h.Events, points, func(i int) { out[i] = g.Node(h.ID).Clone() })
	return out
}

// Versions materializes the distinct states of the node with their
// validity intervals (paper Definition 6's decomposition): the states at
// the change times, from one replay, with runs of equal states merged.
func (h *NodeHistory) Versions() []graph.Version {
	times := ChangeTimes(h.Events)
	states := h.StatesAt(times)
	var out []graph.Version
	prev, cur := h.Initial.Clone(), h.Interval.Start
	for i, tt := range times {
		if !nodeStatesEqual(prev, states[i]) {
			if prev != nil {
				out = append(out, graph.Version{State: prev, Valid: temporal.Interval{Start: cur, End: tt}})
			}
			prev, cur = states[i], tt
		}
	}
	if prev != nil {
		out = append(out, graph.Version{State: prev, Valid: temporal.Interval{Start: cur, End: h.Interval.End}})
	}
	return out
}

// ChangeTimes returns the distinct times of a chronological event
// stream, ascending: a history's change points.
func ChangeTimes(events []graph.Event) []temporal.Time {
	var out []temporal.Time
	for _, e := range events {
		if n := len(out); n == 0 || out[n-1] != e.Time {
			out = append(out, e.Time)
		}
	}
	return out
}

// roll applies the chronological events to g once, forward across the
// points, which may come in any order and repeat: visit(i) runs as soon
// as g holds every event at or before points[i], in ascending point
// order (equal points in index order). visit must not write g.
func roll(g *graph.Graph, events []graph.Event, points []temporal.Time, visit func(i int)) {
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(points[a], points[b]) })
	next := 0
	for _, i := range order {
		for ; next < len(events) && events[next].Time <= points[i]; next++ {
			g.Apply(events[next])
		}
		visit(i)
	}
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
	if err := fetch.ParallelCtx(ctx, runtime.GOMAXPROCS(0), len(refs), func(i int) error {
		ref := refs[i]
		part, _ := res.Part(TableEvents, ref.tm.TSID, ref.sid, ref.el, ref.pid)
		for _, e := range part.Events {
			if e.Time > ts && e.Time < te && keep(e) {
				lists[i] = append(lists[i], e)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return mergeSortEvents(lists), nil
}

// mergeSortEvents merges per-partition event streams into one
// chronological stream, dropping the duplicates that arise because edge
// events are replicated into both endpoints' micro-eventlists. Raw times
// strictly increase, so a time holds several events only where a
// RemoveNode was expanded; that group keeps its stored order
// (storedOrder). History reads and Append's span recovery use it;
// snapshots and the SoN fetch take each micro-eventlist in stored order
// instead, each event on the sides its part owns (materialize,
// FetchNodeHistories).
func mergeSortEvents(lists [][]graph.Event) []graph.Event {
	var all []graph.Event
	for _, l := range lists {
		all = append(all, l...)
	}
	slices.SortFunc(all, graph.CompareEvents)
	out := all[:0]
	for i, e := range all {
		if i > 0 && e == all[i-1] {
			continue
		}
		out = append(out, e)
	}
	for i := 0; i < len(out); {
		j := i + 1
		for j < len(out) && out[j].Time == out[i].Time {
			j++
		}
		if j-i > 1 {
			storedOrder(out[i:j])
		}
		i = j
	}
	return out
}

// storedOrder puts one RemoveNode's expansion (any part of it) in the
// order graph.ExpandRemoveNode stores it: the edge removals by
// graph.CompareEdgeKeys from the removed node's side, then the
// RemoveNode.
func storedOrder(group []graph.Event) {
	v := group[0].Node // the removed node: the RemoveNode's, else the common endpoint
	if k := slices.IndexFunc(group, func(e graph.Event) bool { return e.Kind == graph.RemoveNode }); k >= 0 {
		v = group[k].Node
	} else if b := group[1]; v != b.Node && v != b.Other {
		v = group[0].Other
	}
	side := func(e graph.Event) graph.EdgeKey {
		if e.Node == v {
			return graph.EdgeKey{Other: e.Other, Out: true}
		}
		return graph.EdgeKey{Other: e.Node}
	}
	removal := func(e graph.Event) int {
		if e.Kind == graph.RemoveNode {
			return 1
		}
		return 0
	}
	slices.SortFunc(group, func(a, b graph.Event) int {
		if c := cmp.Compare(removal(a), removal(b)); c != 0 {
			return c
		}
		return graph.CompareEdgeKeys(side(a), side(b))
	})
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
