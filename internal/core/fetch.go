package core

import (
	"context"
	"fmt"
	"slices"

	"hgs/internal/fetch"
	"hgs/internal/graph"
	"hgs/internal/temporal"
)

// runParallel executes tasks with c concurrent query-processor workers
// (the paper's QPs, Figure 3c): the query manager plans the key set, the
// fetch executor moves the bytes in per-node batches, and the QPs decode
// and merge in parallel. The worker pool itself lives in the fetch layer
// (fetch.ParallelCtx) so the two halves share one implementation;
// cancellation is checked at task (partition) boundaries.
func runParallel(ctx context.Context, c int, tasks []func() error) error {
	if c < 1 {
		c = 1
	}
	return fetch.ParallelCtx(ctx, c, len(tasks), func(i int) error { return tasks[i]() })
}

// mergeSortEvents merges per-partition event streams into one
// chronological stream, dropping the duplicates that arise because edge
// events are replicated into both endpoints' micro-eventlists.
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
	return out
}

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

// getSnapshot is GetSnapshot with an explicit trace, so fan-out
// retrievals (GetSnapshotsAt, k-hop via snapshot) thread their own.
func (t *TGI) getSnapshot(tt temporal.Time, opts *FetchOptions, tr *fetch.Trace) (*graph.Graph, error) {
	return t.getSnapshotStream(tt, opts, tr, nil)
}

// getSnapshotStream is the snapshot materialization pipeline. When emit
// is nil, the per-partition graphs are combined into one Graph and
// returned. When emit is non-nil, each horizontal partition's owned
// node states are handed to emit as soon as that partition finishes
// materializing (concurrently from the worker pool — emit must be safe
// for concurrent use), nothing is combined, and the returned graph is
// nil: the streaming path never holds the full snapshot in memory.
// Emitted states are the partition graphs' own (not cloned); emit must
// not retain or mutate them past its return unless it copies.
func (t *TGI) getSnapshotStream(tt temporal.Time, opts *FetchOptions, tr *fetch.Trace, emit func(sid int, states []*graph.NodeState) error) (*graph.Graph, error) {
	ctx := opts.ctx()
	tm, err := t.timespanFor(tt)
	if err != nil {
		return nil, err
	}
	leaf := tm.leafFor(tt)
	ns := t.cfg.HorizontalPartitions
	clients := t.cfg.clients(opts)

	plan := fetch.NewPlan()
	for sid := 0; sid < ns; sid++ {
		planSnapshot(plan, tm, sid, leaf)
	}
	res, err := t.fx.ExecCtx(ctx, plan, clients, tr)
	if err != nil {
		return nil, err
	}

	// Materialize per horizontal partition. Partitions own disjoint node
	// sets and every event touching a node is replicated into the node's
	// own partition's eventlists, so each sid materializes its nodes
	// completely and in isolation — the whole pipeline parallelizes
	// across materialize workers with no shared graph state. Edge-event
	// replay also creates implicit states for foreign endpoints inside a
	// sid graph; the combine loop keeps only each partition's owned
	// nodes, so the result is identical to a global sequential replay
	// for any worker count.
	sidGraphs := make([]*graph.Graph, ns)
	mergeTasks := make([]func() error, 0, ns)
	for sid := 0; sid < ns; sid++ {
		sid := sid
		mergeTasks = append(mergeTasks, func() error {
			sg, err := assembleSnapshot(res, tm, sid, leaf, tt)
			if err != nil {
				return err
			}
			if emit != nil {
				// Stream this partition's owned states out instead of
				// keeping the graph for the combine step.
				var states []*graph.NodeState
				sg.Range(func(nsn *graph.NodeState) bool {
					if t.sidOf(nsn.ID) == sid {
						states = append(states, nsn)
					}
					return true
				})
				return emit(sid, states)
			}
			sidGraphs[sid] = sg
			return nil
		})
	}
	if err := runParallel(ctx, t.cfg.materializeWorkers(), mergeTasks); err != nil {
		return nil, err
	}
	if emit != nil {
		return nil, nil
	}
	g := graph.New()
	for sid, sg := range sidGraphs {
		sg.Range(func(nsn *graph.NodeState) bool {
			if t.sidOf(nsn.ID) == sid {
				g.PutNode(nsn)
			}
			return true
		})
	}
	return g, nil
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
	_, err := t.getSnapshotStream(tt, opts, tr, emit)
	return err
}

// materialize builds one graph the way every TGI answer is built
// (Algorithm 1's per-partition body, Algorithm 4's micro-partition,
// §5.2's SoN initial state, §4.5's 1-hop frontier): merge the path
// micro-deltas in root→leaf order, then replay the boundary
// micro-eventlists up to tt. A single micro-eventlist replays as stored —
// build wrote it chronological and deduplicated per pid — while a whole
// eventlist group is first merged into one chronological stream without
// the edge events replicated across pids. Cache-shared deltas clone
// their states in; private decodes move them (Result.Merge picks).
func materialize(res *fetch.Result, path, boundary []fetch.Part, tt temporal.Time) (*graph.Graph, error) {
	g := graph.New()
	for _, p := range path {
		res.Merge(p.Delta, g)
	}
	var events []graph.Event
	if len(boundary) == 1 {
		events = boundary[0].Events
	} else if len(boundary) > 1 {
		lists := make([][]graph.Event, len(boundary))
		for i, p := range boundary {
			lists[i] = p.Events
		}
		events = mergeSortEvents(lists)
	}
	for _, e := range events {
		if e.Time > tt {
			break
		}
		if err := g.Apply(e); err != nil {
			return nil, err
		}
	}
	return g, nil
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
func assembleSnapshot(res *fetch.Result, tm *TimespanMeta, sid, leaf int, tt temporal.Time) (*graph.Graph, error) {
	var path []fetch.Part
	for _, did := range tm.LeafPaths[leaf] {
		path = append(path, res.Group(TableDeltas, tm.TSID, sid, did)...)
	}
	return materialize(res, path, res.Group(TableEvents, tm.TSID, sid, leaf), tt)
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

// assembleMicroPartition materializes one micro-partition at tt from an
// executed planMicroPartition.
func assembleMicroPartition(res *fetch.Result, tm *TimespanMeta, sid, pid, leaf int, tt temporal.Time) (*graph.Graph, error) {
	path := make([]fetch.Part, 0, len(tm.LeafPaths[leaf]))
	for _, did := range tm.LeafPaths[leaf] {
		if p, ok := res.Part(TableDeltas, tm.TSID, sid, did, pid); ok {
			path = append(path, p)
		}
	}
	var boundary []fetch.Part
	if p, ok := res.Part(TableEvents, tm.TSID, sid, leaf, pid); ok {
		boundary = []fetch.Part{p}
	}
	return materialize(res, path, boundary, tt)
}

// fetchMicroPartition reconstructs the state at time tt of one
// micro-partition (tsid, sid, pid): the path micro-deltas plus the
// boundary micro-eventlist prefix, fetched as a single batched plan.
// This is the unit of work for node and neighborhood queries.
func (t *TGI) fetchMicroPartition(ctx context.Context, tm *TimespanMeta, sid, pid int, tt temporal.Time, tr *fetch.Trace) (*graph.Graph, error) {
	leaf := tm.leafFor(tt)
	plan := fetch.NewPlan()
	planMicroPartition(plan, tm, sid, pid, leaf)
	res, err := t.fx.ExecCtx(ctx, plan, 1, tr)
	if err != nil {
		return nil, err
	}
	return assembleMicroPartition(res, tm, sid, pid, leaf, tt)
}

// GetNodeAt retrieves the state of a single node at time tt, or nil if
// the node does not exist then. Only the node's own micro-partition chain
// is read (the entity-centric access path of Table 1's TGI row).
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
	g, err := t.fetchMicroPartition(ctx, tm, sid, pid, tt, tr)
	if err != nil {
		return nil, err
	}
	ns := g.Node(id)
	if ns == nil {
		return nil, nil
	}
	return ns.Clone(), nil
}
