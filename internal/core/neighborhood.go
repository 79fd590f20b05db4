package core

import (
	"context"
	"sort"
	"sync"

	"hgs/internal/fetch"
	"hgs/internal/graph"
	"hgs/internal/temporal"
)

// GetKHopViaSnapshot retrieves the k-hop neighborhood of a node at time
// tt by fetching the whole snapshot and filtering (Algorithm 3) — the
// right plan for large k.
func (t *TGI) GetKHopViaSnapshot(id graph.NodeID, k int, tt temporal.Time, opts *FetchOptions) (*graph.Graph, error) {
	tr, done := t.startTrace("khop-snapshot", opts)
	defer done()
	g, err := t.getSnapshot(tt, opts, tr)
	if err != nil {
		return nil, err
	}
	return g.KHopSubgraph(id, k), nil
}

// GetKHopNeighborhood retrieves the k-hop neighborhood at time tt by
// expanding outward from the node: each hop plans the micro-partitions
// containing frontier nodes as one deduplicated read set and executes it
// as a single batched fetch round (Algorithm 4). With 1-hop replication
// the first hop is served from the auxiliary micro-deltas (paper §4.5,
// Figure 5d).
func (t *TGI) GetKHopNeighborhood(id graph.NodeID, k int, tt temporal.Time, opts *FetchOptions) (*graph.Graph, error) {
	tr, done := t.startTrace("khop", opts)
	defer done()
	return t.getKHopNeighborhood(id, k, tt, opts, tr)
}

// getKHopNeighborhood is GetKHopNeighborhood with an explicit trace
// (threaded by the multipoint and history variants).
func (t *TGI) getKHopNeighborhood(id graph.NodeID, k int, tt temporal.Time, opts *FetchOptions, tr *fetch.Trace) (*graph.Graph, error) {
	ctx := opts.ctx()
	tm, err := t.timespanFor(tt)
	if err != nil {
		return nil, err
	}
	leaf := tm.leafFor(tt)
	// states holds completely reconstructed node states.
	states := make(map[graph.NodeID]*graph.NodeState)
	fetched := make(map[[2]int]bool) // (sid,pid) micro-partitions already read
	var mu sync.Mutex

	// fetchGroup pulls a set of micro-partitions in one batched plan and
	// registers every state they contain.
	fetchGroup := func(groups map[[2]int][]graph.NodeID) error {
		plan := fetch.NewPlan()
		keys := make([][2]int, 0, len(groups))
		for key := range groups {
			if fetched[key] {
				continue
			}
			fetched[key] = true
			keys = append(keys, key)
			planMicroPartition(plan, tm, key[0], key[1], leaf)
		}
		if len(keys) == 0 {
			return nil
		}
		res, err := t.fx.ExecCtx(ctx, plan, t.cfg.clients(opts), tr)
		if err != nil {
			return err
		}
		tasks := make([]func() error, 0, len(keys))
		for _, key := range keys {
			key := key
			tasks = append(tasks, func() error {
				g, err := assembleMicroPartition(res, tm, key[0], key[1], leaf, tt)
				if err != nil {
					return err
				}
				mu.Lock()
				defer mu.Unlock()
				g.Range(func(ns *graph.NodeState) bool {
					// Only nodes that belong to this micro-partition are
					// complete; others are implicit edge endpoints.
					if t.sidOf(ns.ID) == key[0] {
						if pid, err := t.pidOf(tm, key[0], ns.ID); err == nil && pid == key[1] {
							states[ns.ID] = ns.Clone()
						}
					}
					return true
				})
				return nil
			})
		}
		return runParallel(ctx, t.cfg.materializeWorkers(), tasks)
	}

	groupOf := func(ids []graph.NodeID) (map[[2]int][]graph.NodeID, error) {
		groups := make(map[[2]int][]graph.NodeID)
		for _, nid := range ids {
			sid := t.sidOf(nid)
			pid, err := t.pidOf(tm, sid, nid)
			if err != nil {
				return nil, err
			}
			groups[[2]int{sid, pid}] = append(groups[[2]int{sid, pid}], nid)
		}
		return groups, nil
	}

	// Hop 0: the root's own micro-partition.
	rootGroups, err := groupOf([]graph.NodeID{id})
	if err != nil {
		return nil, err
	}
	if err := fetchGroup(rootGroups); err != nil {
		return nil, err
	}
	if states[id] == nil {
		return graph.New(), nil // node absent at tt
	}

	// With replication, the hop-1 frontier states come from the aux rows.
	// Aux states carry partition-restricted edge lists, which are exact
	// for 1-hop retrieval but incomplete for further expansion, so deeper
	// queries take the per-partition path.
	if t.cfg.Replicate1Hop && k == 1 {
		if err := t.applyAux(ctx, tm, states, id, tt, tr); err != nil {
			return nil, err
		}
	}

	members := map[graph.NodeID]struct{}{id: {}}
	frontier := []graph.NodeID{id}
	for hop := 0; hop < k && len(frontier) > 0; hop++ {
		// Collect neighbor ids of the frontier.
		nextSet := make(map[graph.NodeID]struct{})
		for _, nid := range frontier {
			ns := states[nid]
			if ns == nil {
				continue
			}
			for _, nb := range ns.Neighbors() {
				if _, in := members[nb]; !in {
					nextSet[nb] = struct{}{}
				}
			}
		}
		// Fetch states for unknown members of the next frontier.
		var missing []graph.NodeID
		next := make([]graph.NodeID, 0, len(nextSet))
		for nb := range nextSet {
			members[nb] = struct{}{}
			next = append(next, nb)
			if states[nb] == nil {
				missing = append(missing, nb)
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		if len(missing) > 0 {
			groups, err := groupOf(missing)
			if err != nil {
				return nil, err
			}
			if err := fetchGroup(groups); err != nil {
				return nil, err
			}
		}
		frontier = next
	}

	// Induce the subgraph on the collected members. States assembled from
	// aux rows may know an edge from one side only (restricted frontier
	// adjacency); symmetrizing completes the mirrors before induction.
	full := graph.New()
	for nid := range members {
		if ns := states[nid]; ns != nil {
			full.PutNode(ns.Clone())
		}
	}
	full.Symmetrize()
	ids := make([]graph.NodeID, 0, len(members))
	for nid := range members {
		ids = append(ids, nid)
	}
	return full.Subgraph(ids), nil
}

// applyAux materializes the root micro-partition's auxiliary frontier
// micro-delta and replays its aux eventlist prefix, registering the
// frontier states at tt. Both aux rows travel in one batched read, and
// the decoded aux delta shares the decoded-part cache (hot roots skip
// the store entirely).
func (t *TGI) applyAux(ctx context.Context, tm *TimespanMeta, states map[graph.NodeID]*graph.NodeState, id graph.NodeID, tt temporal.Time, tr *fetch.Trace) error {
	sid := t.sidOf(id)
	pid, err := t.pidOf(tm, sid, id)
	if err != nil {
		return err
	}
	leaf := tm.leafFor(tt)
	plan := fetch.NewPlan()
	plan.Part(TableAux, tm.TSID, sid, leaf, pid)
	if leaf < tm.EventlistCount {
		plan.Part(TableAuxEvents, tm.TSID, sid, leaf, pid)
	}
	res, err := t.fx.ExecCtx(ctx, plan, 1, tr)
	if err != nil {
		return err
	}
	aux, ok := res.Part(TableAux, tm.TSID, sid, leaf, pid)
	if !ok {
		return nil
	}
	// Register only nodes present in the aux delta itself (frontier
	// members at the leaf) — their states are complete through tt. The
	// ids are taken first: merging a private decode moves its states.
	frontier := make([]graph.NodeID, 0, len(aux.Delta.Nodes))
	for nid := range aux.Delta.Nodes {
		frontier = append(frontier, nid)
	}
	var boundary []fetch.Part
	if p, ok := res.Part(TableAuxEvents, tm.TSID, sid, leaf, pid); ok {
		boundary = []fetch.Part{p}
	}
	g, err := materialize(res, []fetch.Part{aux}, boundary, tt)
	if err != nil {
		return err
	}
	for _, nid := range frontier {
		if ns := g.Node(nid); ns != nil {
			states[nid] = ns.Clone()
		}
	}
	return nil
}

// SubgraphHistory is the evolution of a neighborhood over an interval:
// its state at the start plus the events touching its members
// (the result of Algorithm 5 and its k-hop generalization).
type SubgraphHistory struct {
	Root     graph.NodeID
	K        int
	Interval temporal.Interval
	// Initial is the neighborhood subgraph at Interval.Start.
	Initial *graph.Graph
	// Members is the tracked node set (the neighborhood at the start).
	Members []graph.NodeID
	// Events are changes touching any member with Start < Time < End,
	// chronological and deduplicated.
	Events []graph.Event
}

// StateAt replays the history to the subgraph state at time tt, inducing
// on the tracked member set.
func (sh *SubgraphHistory) StateAt(tt temporal.Time) *graph.Graph {
	g := sh.Initial.Clone()
	for _, e := range sh.Events {
		if e.Time > tt {
			break
		}
		g.Apply(e)
	}
	return g.Subgraph(sh.Members)
}

// ChangePoints returns the distinct event times in the history.
func (sh *SubgraphHistory) ChangePoints() []temporal.Time {
	var out []temporal.Time
	for _, e := range sh.Events {
		if n := len(out); n == 0 || out[n-1] != e.Time {
			out = append(out, e.Time)
		}
	}
	return out
}

// GetKHopHistory retrieves the evolution of the k-hop neighborhood of a
// node over [ts, te): the neighborhood subgraph at ts, then every event
// touching its members (Algorithm 5 generalized; the member set is fixed
// at ts — the closed-world semantics used by the paper's
// NodeComputeDelta evaluation; k = 1 is the paper's Algorithm 5). The
// member version chains and the micro-eventlists they reference are each
// fetched as one batched read — the same two phases as GetNodeHistory,
// over the member set.
func (t *TGI) GetKHopHistory(id graph.NodeID, k int, ts, te temporal.Time, opts *FetchOptions) (*SubgraphHistory, error) {
	tr, done := t.startTrace("khop-history", opts)
	defer done()
	initial, err := t.getKHopNeighborhood(id, k, ts, opts, tr)
	if err != nil {
		return nil, err
	}
	members := initial.NodeIDs()
	if len(members) == 0 {
		members = []graph.NodeID{id}
	}
	gm, err := t.loadGraphMeta()
	if err != nil {
		return nil, err
	}
	ctx := opts.ctx()
	clients := t.cfg.clients(opts)
	spans, err := t.overlappingSpans(gm, ts+1, te)
	if err != nil {
		return nil, err
	}
	refs, err := t.changedEventlists(ctx, spans, members, ts, te, clients, tr)
	if err != nil {
		return nil, err
	}
	memberSet := make(map[graph.NodeID]struct{}, len(members))
	for _, m := range members {
		memberSet[m] = struct{}{}
	}
	events, err := t.fetchHistoryEvents(ctx, refs, ts, te, func(e graph.Event) bool {
		_, a := memberSet[e.Node]
		_, b := memberSet[e.Other]
		return a || (e.Kind.IsEdge() && b)
	}, clients, tr)
	if err != nil {
		return nil, err
	}
	return &SubgraphHistory{Root: id, K: k, Interval: temporal.Interval{Start: ts, End: te},
		Initial: initial, Members: members, Events: events}, nil
}

// GetKHopAt retrieves the k-hop neighborhood of a node at each of the
// given timepoints — the paper's second form of neighborhood evolution
// query ("requesting the state of the neighborhood at multiple specific
// time points", §4.6), executed as concurrent single-neighborhood
// fetches.
func (t *TGI) GetKHopAt(id graph.NodeID, k int, times []temporal.Time, opts *FetchOptions) ([]*graph.Graph, error) {
	tr, done := t.startTrace("khop-at", opts)
	defer done()
	ctx := opts.ctx()
	out := make([]*graph.Graph, len(times))
	tasks := make([]func() error, 0, len(times))
	for i, tt := range times {
		i, tt := i, tt
		tasks = append(tasks, func() error {
			g, err := t.getKHopNeighborhood(id, k, tt, &FetchOptions{Clients: 1, Context: ctx}, tr)
			if err != nil {
				return err
			}
			out[i] = g
			return nil
		})
	}
	if err := runParallel(ctx, t.cfg.clients(opts), tasks); err != nil {
		return nil, err
	}
	return out, nil
}

// GetSnapshotsAt retrieves multiple snapshots (the multipoint snapshot
// primitive of Figure 1), fetching them concurrently.
func (t *TGI) GetSnapshotsAt(times []temporal.Time, opts *FetchOptions) ([]*graph.Graph, error) {
	tr, done := t.startTrace("snapshots", opts)
	defer done()
	ctx := opts.ctx()
	out := make([]*graph.Graph, len(times))
	tasks := make([]func() error, 0, len(times))
	for i, tt := range times {
		i, tt := i, tt
		tasks = append(tasks, func() error {
			g, err := t.getSnapshot(tt, &FetchOptions{Clients: 1, Context: ctx}, tr)
			if err != nil {
				return err
			}
			out[i] = g
			return nil
		})
	}
	if err := runParallel(ctx, t.cfg.clients(opts), tasks); err != nil {
		return nil, err
	}
	return out, nil
}
