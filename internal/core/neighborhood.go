package core

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"

	"hgs/internal/fetch"
	"hgs/internal/graph"
	"hgs/internal/temporal"
)

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
// (threaded by GetKHopHistory).
func (t *TGI) getKHopNeighborhood(id graph.NodeID, k int, tt temporal.Time, opts *FetchOptions, tr *fetch.Trace) (*graph.Graph, error) {
	ctx := opts.ctx()
	tm, err := t.timespanFor(tt)
	if err != nil {
		return nil, err
	}
	leaf := tm.leafFor(tt)
	// states holds completely reconstructed node states, read-only: they
	// may be frozen cache states, and the answer is built from clones.
	states := make(map[graph.NodeID]*graph.NodeState)
	fetched := make(map[graph.NodeID]bool) // nodes already materialized, present at tt or not
	// chains keeps every micro-partition chain read so far, so a later
	// hop that wants more of its nodes reads no row twice.
	chains := make(map[[2]int]microPartition)
	var mu sync.Mutex

	// fetchNodes materializes the given nodes at tt: one batched plan for
	// the micro-partitions holding them that no earlier hop read, then
	// per micro-partition only the wanted nodes' states and events.
	fetchNodes := func(ids []graph.NodeID) error {
		groups := make(map[[2]int][]graph.NodeID)
		plan := fetch.NewPlan()
		for _, nid := range ids {
			if fetched[nid] {
				continue
			}
			fetched[nid] = true
			sid := t.sidOf(nid)
			pid, err := t.pidOf(tm, sid, nid)
			if err != nil {
				return err
			}
			key := [2]int{sid, pid}
			if _, ok := chains[key]; !ok {
				planMicroPartition(plan, tm, sid, pid, leaf)
			}
			groups[key] = append(groups[key], nid)
		}
		if len(groups) == 0 {
			return nil
		}
		if !plan.Empty() {
			res, err := t.fx.ExecCtx(ctx, plan, t.cfg.clients(opts), tr)
			if err != nil {
				return err
			}
			for key := range groups {
				if _, ok := chains[key]; !ok {
					chains[key] = microPartitionOf(res, tm, key[0], key[1], leaf)
				}
			}
		}
		type task struct {
			mp   microPartition
			want []graph.NodeID
		}
		tasks := make([]task, 0, len(groups))
		for key, want := range groups {
			slices.Sort(want)
			tasks = append(tasks, task{chains[key], want})
		}
		return fetch.ParallelCtx(ctx, runtime.GOMAXPROCS(0), len(tasks), func(i int) error {
			g, err := t.assemble(tasks[i].mp, tm, tt, tasks[i].want)
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			for _, nid := range tasks[i].want {
				if ns := g.Node(nid); ns != nil {
					states[nid] = ns
				}
			}
			return nil
		})
	}

	// Hop 0: the root, out of its own micro-partition.
	if err := fetchNodes([]graph.NodeID{id}); err != nil {
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
		if err := fetchNodes(missing); err != nil {
			return nil, err
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
	var boundary []fetch.Part
	if p, ok := res.Part(TableAuxEvents, tm.TSID, sid, leaf, pid); ok {
		boundary = []fetch.Part{p}
	}
	g, err := materialize([]fetch.Part{aux}, boundary, tt, nil, nil)
	if err != nil {
		return err
	}
	// Register only nodes present in the aux delta itself (frontier
	// members at the leaf) — their states are complete through tt.
	for _, nid := range aux.IDs() {
		if ns := g.Node(nid); ns != nil {
			states[nid] = ns
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
// on the tracked member set: the one-point case of StatesAt.
func (sh *SubgraphHistory) StateAt(tt temporal.Time) *graph.Graph {
	return sh.StatesAt([]temporal.Time{tt})[0]
}

// StatesAt returns the subgraph induced on the tracked members at each of
// the points (in any order, repeats allowed), from one forward replay of
// the events. Every graph is the caller's.
func (sh *SubgraphHistory) StatesAt(points []temporal.Time) []*graph.Graph {
	g := sh.Initial.Clone()
	out := make([]*graph.Graph, len(points))
	roll(g, sh.Events, points, func(i int) { out[i] = g.Subgraph(sh.Members) })
	return out
}

// ChangePoints returns the distinct event times in the history.
func (sh *SubgraphHistory) ChangePoints() []temporal.Time { return ChangeTimes(sh.Events) }

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
