package core

import (
	"context"
	"fmt"
	"slices"

	"hgs/internal/fetch"
	"hgs/internal/graph"
	"hgs/internal/temporal"
)

// GetSnapshot retrieves the state of the graph at time tt (Algorithm 1):
// plan the micro-deltas along the root-to-leaf path nearest below tt in
// every horizontal partition plus the boundary eventlists, execute the
// plan as one batched fetch round (cache-served where hot), sum the
// deltas in path order, then replay the boundary eventlist up to tt.
func (t *TGI) GetSnapshot(tt temporal.Time, opts *FetchOptions) (*graph.Graph, error) {
	tr, done := t.startTrace("snapshot", opts)
	defer done()
	return t.getSnapshot(tt, opts, tr)
}

// getSnapshot is GetSnapshot with an explicit trace: the one-point case
// of getSnapshotStream.
func (t *TGI) getSnapshot(tt temporal.Time, opts *FetchOptions, tr *fetch.Trace) (*graph.Graph, error) {
	gs, err := t.getSnapshotStream([]temporal.Time{tt}, opts, tr, nil)
	if err != nil {
		return nil, err
	}
	return gs[0], nil
}

// GetSnapshotsAt retrieves the snapshots at several times (the
// multipoint snapshot primitive of Figure 1, one query in §4.6): the
// union of the points' reads runs as one plan, so a delta on several
// points' paths is read once. Answers come in the order of times; a
// repeated time gets its own graph.
func (t *TGI) GetSnapshotsAt(times []temporal.Time, opts *FetchOptions) ([]*graph.Graph, error) {
	tr, done := t.startTrace("snapshots", opts)
	defer done()
	return t.getSnapshotStream(times, opts, tr, nil)
}

// getSnapshotStream is the snapshot pipeline, for one point or many.
// Every (point, horizontal partition) pair adds its planSnapshot to one
// plan, which deduplicates the rows the points share, and the plan runs
// as one execution. Then each pair materializes on the materialize
// workers.
//
// Partitions own disjoint node sets and every event touching a node is
// replicated into the node's own micro-eventlist, so each sid
// materializes exactly its own nodes, completely and in isolation
// (materialize applies an edge event only to the endpoints its part
// owns): the pairs share no graph state, and a point's combine is a
// disjoint union, identical to a global sequential replay for any worker
// count.
//
// When emit is nil, the per-partition graphs of each point are combined
// into one Graph per point, returned in the order of times: the union
// takes over each sid graph's node map as its shard for sidOf's ids, so
// the combine copies no state and costs O(partitions). When emit is
// non-nil, each partition's owned node states are handed to emit as soon
// as that partition finishes materializing (concurrently from the worker
// pool — emit must be safe for concurrent use), nothing is combined, and
// the result is nil: the streaming path never holds a full snapshot in
// memory. Emitted states are the partition graphs' own (not cloned);
// emit must not retain or mutate them past its return unless it copies.
func (t *TGI) getSnapshotStream(times []temporal.Time, opts *FetchOptions, tr *fetch.Trace, emit func(sid int, states []*graph.NodeState) error) ([]*graph.Graph, error) {
	ctx := opts.ctx()
	ns := t.cfg.HorizontalPartitions
	type point struct {
		tm   *TimespanMeta
		leaf int
	}
	pts := make([]point, len(times))
	plan := fetch.NewPlan()
	for i, tt := range times {
		tm, err := t.timespanFor(tt)
		if err != nil {
			return nil, err
		}
		pts[i] = point{tm, tm.leafFor(tt)}
		for sid := 0; sid < ns; sid++ {
			planSnapshot(plan, tm, sid, pts[i].leaf)
		}
	}
	res, err := t.fx.ExecCtx(ctx, plan, t.cfg.clients(opts), tr)
	if err != nil {
		return nil, err
	}

	parts := make([]*graph.Graph, len(times)*ns)
	err = fetch.ParallelCtx(ctx, t.cfg.materializeWorkers(), len(parts), func(i int) error {
		p, sid := pts[i/ns], i%ns
		sg, err := t.assembleSnapshot(res, p.tm, sid, p.leaf, times[i/ns])
		if err != nil {
			return err
		}
		if emit == nil {
			parts[i] = sg
			return nil
		}
		// Stream this partition's states out instead of keeping the
		// graph for the combine step.
		states := make([]*graph.NodeState, 0, sg.NumNodes())
		sg.Range(func(nsn *graph.NodeState) bool {
			states = append(states, nsn)
			return true
		})
		return emit(sid, states)
	})
	if err != nil || emit != nil {
		return nil, err
	}
	out := make([]*graph.Graph, len(times))
	for i := range out {
		out[i] = graph.DisjointUnion(t.sidOf, parts[i*ns:(i+1)*ns]...)
	}
	return out, nil
}

// StreamSnapshot retrieves the snapshot at tt like GetSnapshot but
// never assembles it: each horizontal partition's node states are
// passed to emit as soon as that partition materializes, possibly
// concurrently (emit must be safe for concurrent use and must not
// retain the states). The serve layer's NDJSON snapshot endpoint rides
// this so arbitrarily large snapshots stream in bounded memory.
func (t *TGI) StreamSnapshot(tt temporal.Time, opts *FetchOptions, emit func(sid int, states []*graph.NodeState) error) error {
	tr, done := t.startTrace("snapshot", opts)
	defer done()
	if emit == nil {
		return fmt.Errorf("core: StreamSnapshot requires an emit callback")
	}
	_, err := t.getSnapshotStream([]temporal.Time{tt}, opts, tr, emit)
	return err
}

// materialize builds one graph the way every TGI answer is built
// (Algorithm 1's per-partition body, Algorithm 4's micro-partition,
// §5.2's SoN initial state, §4.5's 1-hop frontier): install the path
// micro-deltas in root→leaf order, then replay each boundary
// micro-eventlist as stored — build wrote it chronological — one after
// another, up to tt, with no merge. Path states are frozen, shared: they
// are installed by pointer, and the replay's Graph methods copy only the
// states it writes, so the answer shares every other state with the
// cache.
//
// The build copies an edge event into both endpoints' micro-eventlists
// (§4.2), so a node's own list holds its whole boundary history in order.
// The replay therefore applies an edge event only to the endpoints that
// o says the list's part owns (Graph.ApplySide), and the graph holds only
// owned nodes, each complete. Node events concern their own part's node
// and go through Apply. A RemoveNode finds the node's edges already
// gone: the build expanded it (graph.ExpandRemoveNode) into RemoveEdge
// events that sit just before it in the same list, so it never reaches
// into another part's node. A nil o applies both sides: applyAux's
// frontier states belong to other partitions.
//
// Since each owned node's replay touches that node alone, a whole
// partition's replay (want nil, o set) goes node by node through a
// cached list's end index (fetch.Ends): a node whose last event in the
// list is at or before tt has its end-of-list state at tt. If a replay
// published that state already, the node's first event installs it by
// pointer (or drops the node, absent at the end) and its events are
// skipped; if not, the node replays and, after the list's loop, its
// state is frozen and published for later replays. A node with events
// after tt replays as before. An end state holds only on the path it was
// replayed from, so path must be the base LeafPaths[leaf] of the
// boundary's leaf, as it is for every whole-partition caller (snapshots,
// the SoN's initial states, Append's carry).
//
// want, ascending, asks for some nodes only (a point read's node, a
// k-hop frontier's members of one micro-partition): then only their
// path states are decoded and installed, and only the boundary events
// that touch them are replayed, each on the wanted side. Since a node's
// state is its path states plus its own side of its own list's events,
// each wanted node comes out exactly as in the whole graph. nil wants
// every owned node; want needs an owner.
func materialize(path, boundary []fetch.Part, tt temporal.Time, o *owner, want []graph.NodeID) (*graph.Graph, error) {
	n := len(want)
	if want == nil {
		for _, p := range path {
			n += p.NumStates()
		}
	}
	g := graph.NewWithCapacity(n)
	for _, p := range path {
		if err := p.ApplyTo(g, want); err != nil {
			return nil, err
		}
	}
	var ends endReplay
	for _, p := range boundary {
		if want == nil && o != nil {
			ends.reset(p.Ends(), tt)
		}
		for i, e := range p.Events {
			if e.Time > tt {
				break
			}
			var err error
			switch {
			case o == nil:
				err = g.Apply(e)
			case !e.Kind.IsEdge() || e.Node == e.Other:
				if wanted(want, e.Node) && ends.replays(g, i, 0) {
					err = g.Apply(e)
				}
			default:
				if wanted(want, e.Node) && o.owns(e.Node, p.PID) && ends.replays(g, i, 0) {
					err = g.ApplySide(e, e.Node)
				}
				if err == nil && wanted(want, e.Other) && o.owns(e.Other, p.PID) && ends.replays(g, i, 1) {
					err = g.ApplySide(e, e.Other)
				}
			}
			if err != nil {
				return nil, err
			}
		}
		ends.publish(g)
	}
	return g, nil
}

// endReplay is materialize's node-by-node use of one micro-eventlist's
// end index. Its zero value, or one reset to a nil index, replays every
// node.
type endReplay struct {
	ends *fetch.Ends
	tt   temporal.Time
	// how is, per slot, what the replay does with the node: decided at
	// its first event.
	how []uint8
	// done lists the howPublish slots, published after the loop.
	done []int32
}

// The values of endReplay.how.
const (
	howUndecided = iota
	howReplay
	howPublish // replay, then publish the end state
	howInstalled
)

// reset points r at a part's end index (nil: replay every node).
func (r *endReplay) reset(ends *fetch.Ends, tt temporal.Time) {
	r.ends, r.tt, r.done = ends, tt, r.done[:0]
	if ends != nil {
		r.how = slices.Grow(r.how[:0], ends.Len())[:ends.Len()]
		clear(r.how)
	}
}

// replays reports whether event i's side (0 Node, 1 Other) replays.
// At a node's first event it decides for all of the node's events: an
// installed node's later events are skipped.
func (r *endReplay) replays(g *graph.Graph, i, side int) bool {
	if r.ends == nil {
		return true
	}
	s := r.ends.Slot(i, side)
	switch r.how[s] {
	case howReplay, howPublish:
		return true
	case howInstalled:
		return false
	}
	if r.ends.Last(s) > r.tt {
		r.how[s] = howReplay
		return true
	}
	if ns, ok := r.ends.End(s); ok {
		if ns == nil {
			g.DropNode(r.ends.ID(s))
		} else {
			g.PutNode(ns)
		}
		r.how[s] = howInstalled
		return false
	}
	r.how[s] = howPublish
	r.done = append(r.done, s)
	return true
}

// publish publishes the end states of the nodes the part's loop replayed
// to the end of the list.
func (r *endReplay) publish(g *graph.Graph) {
	for _, s := range r.done {
		r.ends.Publish(s, g.Node(r.ends.ID(s)))
	}
}

// wanted reports whether materialize's want (ascending, nil for all)
// holds id.
func wanted(want []graph.NodeID, id graph.NodeID) bool {
	if want == nil {
		return true
	}
	_, ok := slices.BinarySearch(want, id)
	return ok
}

// planSnapshot adds horizontal partition sid's slice of Algorithm 1 to a
// plan: every path delta group root→leaf and the boundary eventlist
// group.
func planSnapshot(plan *fetch.Plan, tm *TimespanMeta, sid, leaf int) {
	for _, did := range tm.LeafPaths[leaf] {
		plan.Group(TableDeltas, tm.TSID, sid, did)
	}
	if leaf < tm.EventlistCount {
		plan.Group(TableEvents, tm.TSID, sid, leaf)
	}
}

// assembleSnapshot materializes horizontal partition sid at tt from an
// executed planSnapshot.
func (t *TGI) assembleSnapshot(res *fetch.Result, tm *TimespanMeta, sid, leaf int, tt temporal.Time) (*graph.Graph, error) {
	o, err := t.ownerOf(tm, sid)
	if err != nil {
		return nil, err
	}
	var path []fetch.Part
	for _, did := range tm.LeafPaths[leaf] {
		path = append(path, res.Group(TableDeltas, tm.TSID, sid, did)...)
	}
	return materialize(path, res.Group(TableEvents, tm.TSID, sid, leaf), tt, &o, nil)
}

// planMicroPartition adds one micro-partition's reconstruction chain —
// the path micro-deltas and the boundary micro-eventlist — to a plan.
func planMicroPartition(plan *fetch.Plan, tm *TimespanMeta, sid, pid, leaf int) {
	for _, did := range tm.LeafPaths[leaf] {
		plan.Part(TableDeltas, tm.TSID, sid, did, pid)
	}
	if leaf < tm.EventlistCount {
		plan.Part(TableEvents, tm.TSID, sid, leaf, pid)
	}
}

// microPartition is one micro-partition's reconstruction chain at a
// leaf, out of an executed planMicroPartition: its path micro-deltas
// root→leaf and its boundary micro-eventlist (absent rows left out).
type microPartition struct {
	sid, pid       int
	path, boundary []fetch.Part
}

// microPartitionOf collects micro-partition (sid, pid)'s chain at leaf
// from res.
func microPartitionOf(res *fetch.Result, tm *TimespanMeta, sid, pid, leaf int) microPartition {
	mp := microPartition{sid: sid, pid: pid, path: make([]fetch.Part, 0, len(tm.LeafPaths[leaf]))}
	for _, did := range tm.LeafPaths[leaf] {
		if p, ok := res.Part(TableDeltas, tm.TSID, sid, did, pid); ok {
			mp.path = append(mp.path, p)
		}
	}
	if p, ok := res.Part(TableEvents, tm.TSID, sid, leaf, pid); ok {
		mp.boundary = []fetch.Part{p}
	}
	return mp
}

// assemble materializes the wanted nodes (ascending) of the
// micro-partition at tt: the graph holds those that exist then.
func (t *TGI) assemble(mp microPartition, tm *TimespanMeta, tt temporal.Time, want []graph.NodeID) (*graph.Graph, error) {
	o, err := t.ownerOf(tm, mp.sid)
	if err != nil {
		return nil, err
	}
	return materialize(mp.path, mp.boundary, tt, &o, want)
}

// GetNodeAt retrieves the state of a single node at time tt, or nil if
// the node does not exist then. Only the node's own micro-partition chain
// is read (the entity-centric access path of Table 1's TGI row), and of
// it only the node's own states are decoded and its own events replayed.
// The state is the caller's.
func (t *TGI) GetNodeAt(id graph.NodeID, tt temporal.Time, opts *FetchOptions) (*graph.NodeState, error) {
	tr, done := t.startTrace("node-at", opts)
	defer done()
	return t.getNodeAt(opts.ctx(), id, tt, tr)
}

// getNodeAt is GetNodeAt with an explicit trace (threaded by history
// retrievals for their initial-state fetch).
func (t *TGI) getNodeAt(ctx context.Context, id graph.NodeID, tt temporal.Time, tr *fetch.Trace) (*graph.NodeState, error) {
	tm, err := t.timespanFor(tt)
	if err != nil {
		return nil, err
	}
	sid := t.sidOf(id)
	pid, err := t.pidOf(tm, sid, id)
	if err != nil {
		return nil, err
	}
	leaf := tm.leafFor(tt)
	plan := fetch.NewPlan()
	planMicroPartition(plan, tm, sid, pid, leaf)
	res, err := t.fx.ExecCtx(ctx, plan, 1, tr)
	if err != nil {
		return nil, err
	}
	g, err := t.assemble(microPartitionOf(res, tm, sid, pid, leaf), tm, tt, []graph.NodeID{id})
	if err != nil {
		return nil, err
	}
	ns := g.Node(id)
	if ns == nil {
		return nil, nil
	}
	return ns.Clone(), nil
}
