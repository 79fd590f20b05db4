package hgs

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"hgs/internal/graph"
	"hgs/internal/workload"
)

// attributedHistory is a small Wikipedia-like history followed by node
// and edge attribute events, so that answers hold attributed states.
func attributedHistory(nodes int) []Event {
	events := workload.Wikipedia(workload.WikiConfig{Nodes: nodes, EdgesPerNode: 3, Seed: 42})
	clock := events[len(events)-1].Time
	g := mustGraph(events, clock)
	for _, id := range g.NodeIDs() {
		if id%3 == 0 {
			clock++
			events = append(events, Event{Time: clock, Kind: SetNodeAttr, Node: id, Key: "label", Value: fmt.Sprint(id % 7)})
		}
		for _, nb := range g.Node(id).OutNeighbors() {
			if (id+nb)%4 == 0 {
				clock++
				events = append(events, Event{Time: clock, Kind: SetEdgeAttr, Node: id, Other: nb, Key: "w", Value: "1"})
			}
		}
	}
	return events
}

// mutateAnswer changes an answer through every Graph mutator: each Apply
// kind, RemoveNode of its two highest-degree nodes, RemoveEdge, AddEdge,
// AddNode and Symmetrize. It fails when the answer did not change.
func mutateAnswer(g *Graph) error {
	ids := g.NodeIDs()
	if len(ids) < 4 {
		return fmt.Errorf("answer too small to mutate: %d nodes", len(ids))
	}
	before := g.Clone()
	fresh := ids[len(ids)-1] + 1
	hubs := append([]NodeID(nil), ids...)
	slices.SortStableFunc(hubs, func(a, b NodeID) int { return g.Node(b).Degree() - g.Node(a).Degree() })
	var (
		attrNode    *NodeState
		edge, attrd [2]NodeID
		hasEdge     bool
		hasAttrd    bool
	)
	for _, id := range ids {
		ns := g.Node(id)
		if attrNode == nil && len(ns.Attrs) > 0 {
			attrNode = ns
		}
		for k, es := range ns.Edges {
			if !k.Out || k.Other == id {
				continue
			}
			if !hasEdge {
				edge, hasEdge = [2]NodeID{id, k.Other}, true
			}
			if !hasAttrd && len(es.Attrs) > 0 {
				attrd, hasAttrd = [2]NodeID{id, k.Other}, true
			}
		}
	}
	evs := []Event{
		{Kind: AddNode, Node: fresh},
		{Kind: AddEdge, Node: ids[0], Other: ids[len(ids)-1]},
		{Kind: SetNodeAttr, Node: ids[1], Key: "mut", Value: "x"},
	}
	if attrNode != nil {
		evs = append(evs, Event{Kind: DelNodeAttr, Node: attrNode.ID, Key: "label"})
	}
	if hasAttrd {
		evs = append(evs, Event{Kind: DelEdgeAttr, Node: attrd[0], Other: attrd[1], Key: "w"})
	}
	if hasEdge {
		evs = append(evs,
			Event{Kind: SetEdgeAttr, Node: edge[0], Other: edge[1], Key: "mut", Value: "x"},
			Event{Kind: RemoveEdge, Node: edge[0], Other: edge[1]})
	}
	evs = append(evs, Event{Kind: RemoveNode, Node: hubs[0]})
	for _, e := range evs {
		if err := g.Apply(e); err != nil {
			return err
		}
	}
	g.RemoveNode(hubs[1])
	g.AddEdge(ids[2], ids[3])
	g.AddNode(fresh + 1)
	g.Symmetrize()
	if g.Equal(before) {
		return fmt.Errorf("mutations left the answer unchanged")
	}
	return nil
}

// TestAnswerMutationIsolation mutates warm Snapshot, Snapshots and KHop
// answers through every Graph mutator and requires the answers asked for
// afterwards to still equal a replay of the event log: answers share
// frozen cache states, and writing one answer must reach neither the
// cache nor any other answer. Node and NodeHistory answers, first cold
// then warm, are the caller's: their states are written directly.
func TestAnswerMutationIsolation(t *testing.T) {
	events := attributedHistory(600)
	store, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Load(events); err != nil {
		t.Fatal(err)
	}
	lo, hi, err := store.TimeRange()
	if err != nil {
		t.Fatal(err)
	}
	const root, hops = NodeID(1), 2
	times := []Time{lo + (hi-lo)/3, lo + 2*(hi-lo)/3, hi - 50, hi}
	want := make([]*Graph, len(times))
	for i, tt := range times {
		want[i] = mustGraph(events, tt)
	}
	check := func(what string, i int, g *Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		w := want[i]
		if what == "khop" {
			w = w.KHopSubgraph(root, hops)
		}
		if !g.Equal(w) {
			t.Fatalf("%s@%d differs from the replay of the log", what, times[i])
		}
	}
	// The first round warms the cache; every later answer is built from
	// cache-resident states that earlier answers were mutated over.
	for round := 0; round < 3; round++ {
		for i, tt := range times {
			for id := NodeID(0); id < 12; id++ {
				ns, err := store.Node(id, tt)
				if err != nil {
					t.Fatal(err)
				}
				if w := want[i].Node(id); (ns == nil) != (w == nil) || (ns != nil && !ns.Equal(w)) {
					t.Fatalf("node %d@%d = %v, the replay of the log has %v", id, tt, ns, w)
				}
				scribble(ns)
				h, err := store.NodeHistory(id, tt, hi+1)
				if err != nil {
					t.Fatal(err)
				}
				if got, w := h.StateAt(hi), want[len(times)-1].Node(id); (got == nil) != (w == nil) || (got != nil && !got.Equal(w)) {
					t.Fatalf("history of node %d from %d ends at %v, the replay of the log has %v", id, tt, got, w)
				}
				scribble(h.Initial)
			}
			g, err := store.Snapshot(tt)
			check("snapshot", i, g, err)
			if err := mutateAnswer(g); err != nil {
				t.Fatal(err)
			}
			sub, err := store.KHop(root, hops, tt)
			check("khop", i, sub, err)
			if err := mutateAnswer(sub); err != nil {
				t.Fatal(err)
			}
		}
		// Point 1 repeats: scribbling on its first answer must leave the
		// twin, checked after, unchanged.
		idx := []int{0, 1, 1, 2, 3}
		pts := make([]Time, len(idx))
		for j, i := range idx {
			pts[j] = times[i]
		}
		gs, err := store.Snapshots(pts)
		if err != nil {
			t.Fatal(err)
		}
		for j, g := range gs {
			check("snapshots", idx[j], g, nil)
			if err := mutateAnswer(g); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Two answers at one time: one loses its highest-degree hub, whose
	// neighbors lie in every sid, and gains an unseen id, each write
	// routed to the shard of the id it names; the other must still equal
	// the replay of the log.
	for i, tt := range times {
		a, err := store.Snapshot(tt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := store.Snapshot(tt)
		if err != nil {
			t.Fatal(err)
		}
		w := mustGraph(events, tt)
		ids := w.NodeIDs()
		hub := slices.MaxFunc(ids, func(x, y NodeID) int { return w.Node(x).Degree() - w.Node(y).Degree() })
		fresh := ids[len(ids)-1] + 1
		for _, g := range []*Graph{a, w} {
			g.RemoveNode(hub)
			g.AddNode(fresh)
		}
		if !a.Equal(w) {
			t.Fatalf("snapshot@%d after RemoveNode(%d) and AddNode(%d) differs from the replay's", tt, hub, fresh)
		}
		check("snapshot", i, b, nil)
	}

	// After a warm sweep of a leaf, every answer there holds the end
	// state of each node done by its time (no event later in the leaf's
	// eventlist) by pointer. Writes through Graph methods on one answer's
	// done nodes must reach no later answer, at that time or another.
	opts := smallOptions()
	for _, j := range []int{len(events) / 3, len(events) * 2 / 3, len(events) - 40} {
		base := j / opts.TimespanEvents * opts.TimespanEvents
		base += (j - base) / opts.EventlistSize * opts.EventlistSize
		end := min(base+opts.EventlistSize, len(events))
		if j == end-1 {
			j-- // the time of a list's last event reads the next leaf
		}
		tt := events[j].Time
		for k := base; k <= j; k += 10 {
			if _, err := store.Snapshot(events[k].Time); err != nil {
				t.Fatal(err)
			}
		}
		a, err := store.Snapshot(tt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := store.Snapshot(tt)
		if err != nil {
			t.Fatal(err)
		}
		var done []NodeID
		for id := range touchedIn(events[base : j+1]) {
			if !touchedIn(events[j+1 : end])[id] && a.Has(id) {
				if a.Node(id) != b.Node(id) {
					t.Fatalf("node %d is done by %d, but two answers there hold different states", id, tt)
				}
				done = append(done, id)
			}
		}
		if len(done) < 4 {
			t.Fatalf("only %d nodes are done by %d in its eventlist", len(done), tt)
		}
		slices.Sort(done)
		fresh := a.NodeIDs()[a.NumNodes()-1] + 1
		for i, id := range done[:len(done)-1] {
			a.AddEdge(id, fresh)
			if err := a.Apply(Event{Kind: SetEdgeAttr, Node: id, Other: done[i+1], Key: "w", Value: "mut"}); err != nil {
				t.Fatal(err)
			}
		}
		a.RemoveNode(done[len(done)-1])
		for _, at := range []Time{tt, events[base].Time, lo, hi} {
			g, err := store.Snapshot(at)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(mustGraph(events, at)) {
				t.Fatalf("snapshot@%d differs from the replay of the log after writes on the done nodes of an answer at %d", at, tt)
			}
		}
	}
}

// touchedIn returns the nodes the events touch.
func touchedIn(events []Event) map[NodeID]bool {
	ids := map[NodeID]bool{}
	for _, e := range events {
		ids[e.Node] = true
		if e.Kind.IsEdge() {
			ids[e.Other] = true
		}
	}
	return ids
}

// scribble writes a caller-owned node state directly: its attributes,
// every edge's attributes, and its edge set.
func scribble(ns *NodeState) {
	if ns == nil {
		return
	}
	if ns.Attrs == nil {
		ns.Attrs = Attrs{}
	}
	ns.Attrs["scribbled"] = "yes"
	for k, es := range ns.Edges {
		es.Attrs = Attrs{"scribbled": "yes"}
		delete(ns.Edges, k)
		break
	}
	if ns.Edges == nil {
		ns.Edges = map[graph.EdgeKey]*graph.EdgeState{}
	}
	ns.Edges[graph.EdgeKey{Other: -1, Out: true}] = &graph.EdgeState{}
}

// TestAnswerMutationIsolationConcurrent has goroutines mutate their own
// answers for the same warm time at once; under -race it proves that no
// mutator writes a state another answer shares.
func TestAnswerMutationIsolationConcurrent(t *testing.T) {
	events := attributedHistory(300)
	store, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Load(events); err != nil {
		t.Fatal(err)
	}
	tt := events[len(events)-1].Time
	want := mustGraph(events, tt)
	if _, err := store.Snapshot(tt); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				g, err := store.Snapshot(tt)
				if err == nil && !g.Equal(want) {
					err = fmt.Errorf("snapshot@%d differs from the replay of the log", tt)
				}
				if err == nil {
					err = mutateAnswer(g)
				}
				var sub *Graph
				if err == nil {
					sub, err = store.KHop(1, 1, tt)
				}
				if err == nil {
					err = mutateAnswer(sub)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
