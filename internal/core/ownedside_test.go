package core

import (
	"slices"
	"sync"
	"testing"

	"hgs/internal/graph"
	"hgs/internal/partition"
	"hgs/internal/temporal"
)

// TestMicroEventlistsHoldOwnedHistory checks the invariant the snapshot
// replay rests on: a node's own micro-eventlist holds, in order, every
// event of its eventlist that touches the node (paper §4.2 copies each
// edge event into both endpoints' lists; RemoveNode arrives expanded
// into the RemoveEdge events of its neighbors). So replaying only a
// list's owned sides reconstructs each owned node exactly.
func TestMicroEventlistsHoldOwnedHistory(t *testing.T) {
	const idSpace = 40
	events := genHistory(11, 400, idSpace)
	for name, cfg := range configsUnderTest() {
		t.Run(name, func(t *testing.T) {
			tgi := buildSmall(t, cfg, events)
			gm, err := tgi.loadGraphMeta()
			if err != nil {
				t.Fatal(err)
			}
			w := graph.New()
			l := tgi.cfg.EventlistSize
			for tsid := 0; tsid < gm.TimespanCount; tsid++ {
				tm, err := tgi.loadTimespanMeta(tsid)
				if err != nil {
					t.Fatal(err)
				}
				span := events[tsid*tgi.cfg.TimespanEvents : min((tsid+1)*tgi.cfg.TimespanEvents, len(events))]
				for el := 0; el < tm.EventlistCount; el++ {
					var expanded []graph.Event
					for _, e := range span[el*l : min((el+1)*l, len(span))] {
						for _, x := range graph.ExpandRemoveNode(w, e) {
							expanded = append(expanded, x)
							if err := w.Apply(x); err != nil {
								t.Fatal(err)
							}
						}
					}
					for x := graph.NodeID(0); x < idSpace; x++ {
						sid := tgi.sidOf(x)
						pid, err := tgi.pidOf(tm, sid, x)
						if err != nil {
							t.Fatal(err)
						}
						var stored []graph.Event
						if blob, ok := tgi.store.Get(TableEvents, placementKey(tsid, sid), eventCKey(el, pid)); ok {
							if stored, err = tgi.cdc.DecodeEvents(blob); err != nil {
								t.Fatal(err)
							}
						}
						got := filterEventsByNode(stored, x)
						want := filterEventsByNode(expanded, x)
						if !slices.Equal(got, want) {
							t.Fatalf("span %d eventlist %d node %d (sid %d pid %d): own micro-eventlist holds\n%v\nwant\n%v",
								tsid, el, x, sid, pid, got, want)
						}
					}
				}
			}
		})
	}
}

// filterEventsByNode returns the events touching node id, in the original
// order.
func filterEventsByNode(events []graph.Event, id graph.NodeID) []graph.Event {
	var out []graph.Event
	for _, e := range events {
		if e.Touches(id) {
			out = append(out, e)
		}
	}
	return out
}

// ownedSideRoles picks, over node ids [0, n) of one span, two nodes a
// and b of one horizontal partition but different micro-partitions, a
// node c of another horizontal partition, and two more nodes s and m.
func ownedSideRoles(t *testing.T, cfg Config, n int) (a, b, c, s, m graph.NodeID) {
	t.Helper()
	skeleton := make([]graph.Event, n)
	for i := range skeleton {
		skeleton[i] = graph.Event{Time: temporal.Time(10 * (i + 1)), Kind: graph.AddNode, Node: graph.NodeID(i)}
	}
	tgi := buildSmall(t, cfg, skeleton)
	tm, err := tgi.loadTimespanMeta(0)
	if err != nil {
		t.Fatal(err)
	}
	pid := func(id graph.NodeID) int {
		p, err := tgi.pidOf(tm, tgi.sidOf(id), id)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	found := false
	for i := 0; i < n && !found; i++ {
		for j := i + 1; j < n && !found; j++ {
			a, b = graph.NodeID(i), graph.NodeID(j)
			found = tgi.sidOf(a) == tgi.sidOf(b) && pid(a) != pid(b)
		}
	}
	if !found {
		t.Fatal("no two nodes share a horizontal partition across micro-partitions")
	}
	var rest []graph.NodeID
	c = -1
	for i := graph.NodeID(0); i < graph.NodeID(n); i++ {
		switch {
		case i == a || i == b:
		case c < 0 && tgi.sidOf(i) != tgi.sidOf(a):
			c = i
		default:
			rest = append(rest, i)
		}
	}
	if c < 0 || len(rest) < 2 {
		t.Fatal("too few nodes for the roles")
	}
	return a, b, c, rest[0], rest[1]
}

// TestOwnedSideReplayTargeted checks every retrieval built from owned-side
// replay against the oracle at every event time of a history built to hit
// its edge cases, with micro-partitions of two nodes so each horizontal
// partition has many: edges and edge attributes between micro-partitions
// of one horizontal partition, a RemoveNode followed by re-adding the
// node and the same edge within one eventlist, self-loops, and endpoints
// first created by an edge event.
func TestOwnedSideReplayTargeted(t *testing.T) {
	const n = 16
	base := smallConfig()
	base.HorizontalPartitions = 2
	base.PartitionSize = 2
	base.EventlistSize = 64 // the whole history is one boundary list
	a, b, c, s, m := ownedSideRoles(t, base, n)

	var events []graph.Event
	add := func(e graph.Event) {
		e.Time = temporal.Time(10 * (len(events) + 1))
		events = append(events, e)
	}
	for i := graph.NodeID(0); i < n; i++ {
		if i != m { // m is first created by an edge event
			add(graph.Event{Kind: graph.AddNode, Node: i})
		}
	}
	for _, e := range []graph.Event{
		{Kind: graph.AddEdge, Node: a, Other: b},
		{Kind: graph.SetEdgeAttr, Node: a, Other: b, Key: "w", Value: "1"},
		{Kind: graph.AddEdge, Node: b, Other: a},
		{Kind: graph.AddEdge, Node: c, Other: a},
		{Kind: graph.AddEdge, Node: s, Other: s},
		{Kind: graph.SetEdgeAttr, Node: s, Other: s, Key: "w", Value: "1"},
		{Kind: graph.SetEdgeAttr, Node: b, Other: a, Key: "w", Value: "2"},
		{Kind: graph.DelEdgeAttr, Node: a, Other: b, Key: "w"},
		{Kind: graph.AddEdge, Node: a, Other: m},
		{Kind: graph.SetEdgeAttr, Node: m, Other: c, Key: "w", Value: "3"},
		{Kind: graph.AddEdge, Node: a, Other: a},
		{Kind: graph.RemoveNode, Node: a},
		{Kind: graph.AddNode, Node: a},
		{Kind: graph.AddEdge, Node: a, Other: b},
		{Kind: graph.SetEdgeAttr, Node: a, Other: b, Key: "w", Value: "4"},
		{Kind: graph.SetNodeAttr, Node: b, Key: "k", Value: "v"},
		{Kind: graph.RemoveNode, Node: s},
		{Kind: graph.AddEdge, Node: s, Other: s},
		{Kind: graph.DelEdgeAttr, Node: b, Other: a, Key: "w"},
		{Kind: graph.RemoveEdge, Node: a, Other: b},
		{Kind: graph.SetEdgeAttr, Node: a, Other: b, Key: "w", Value: "5"},
		{Kind: graph.RemoveNode, Node: b},
		{Kind: graph.AddEdge, Node: c, Other: b},
		{Kind: graph.SetEdgeAttr, Node: b, Other: a, Key: "w", Value: "6"},
		{Kind: graph.RemoveNode, Node: m},
		{Kind: graph.SetEdgeAttr, Node: m, Other: a, Key: "w", Value: "7"},
	} {
		add(e)
	}

	cutLists := base
	cutLists.EventlistSize = 5
	locality := base
	locality.Partitioning = partition.Locality
	replicated := locality
	replicated.Replicate1Hop = true
	for name, cfg := range map[string]Config{"random": base, "cutLists": cutLists, "locality": locality, "replicated": replicated} {
		t.Run(name, func(t *testing.T) {
			tgi := buildSmall(t, cfg, events)
			if name == "random" {
				tm, err := tgi.loadTimespanMeta(0)
				if err != nil {
					t.Fatal(err)
				}
				pa, _ := tgi.pidOf(tm, tgi.sidOf(a), a)
				pb, _ := tgi.pidOf(tm, tgi.sidOf(b), b)
				if tgi.sidOf(a) != tgi.sidOf(b) || pa == pb || tgi.sidOf(c) == tgi.sidOf(a) {
					t.Fatalf("roles lost their placement: a=%d b=%d c=%d", a, b, c)
				}
			}
			for _, e := range events {
				tt := e.Time
				want := oracle(events, tt)
				got, err := tgi.GetSnapshot(tt, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("snapshot at %d (%v) differs:\n got %v\nwant %v", tt, e, got, want)
				}
				for id := graph.NodeID(0); id < n; id++ {
					ns, err := tgi.GetNodeAt(id, tt, nil)
					if err != nil {
						t.Fatal(err)
					}
					if w := want.Node(id); (ns == nil) != (w == nil) || (ns != nil && !ns.Equal(w)) {
						t.Fatalf("node %d at %d (%v): got %v want %v", id, tt, e, ns, w)
					}
				}
				for _, root := range []graph.NodeID{a, b, m} {
					for k := 1; k <= 2; k++ {
						kh, err := tgi.GetKHopNeighborhood(root, k, tt, nil)
						if err != nil {
							t.Fatal(err)
						}
						if w := want.KHopSubgraph(root, k); !kh.Equal(w) {
							t.Fatalf("%d-hop of %d at %d (%v): got %v want %v", k, root, tt, e, kh, w)
						}
					}
				}
			}
		})
	}
}

// TestStreamSnapshotEmitsOwnedStates checks the streaming surface without
// any ownership filter: each horizontal partition emits only states it
// owns, no node twice, and together exactly GetSnapshot's answer.
func TestStreamSnapshotEmitsOwnedStates(t *testing.T) {
	events := genHistory(12, 400, 40)
	for name, cfg := range configsUnderTest() {
		t.Run(name, func(t *testing.T) {
			tgi := buildSmall(t, cfg, events)
			for _, tt := range []temporal.Time{5, 255, 1201, 2405, 3999, 9999} {
				var mu sync.Mutex
				streamed := graph.New()
				err := tgi.StreamSnapshot(tt, nil, func(sid int, states []*graph.NodeState) error {
					mu.Lock()
					defer mu.Unlock()
					for _, ns := range states {
						if got := tgi.sidOf(ns.ID); got != sid {
							t.Errorf("at %d: node %d of partition %d emitted for partition %d", tt, ns.ID, got, sid)
						}
						if streamed.Has(ns.ID) {
							t.Errorf("at %d: node %d emitted twice", tt, ns.ID)
						}
						streamed.PutNode(ns.Clone())
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				want, err := tgi.GetSnapshot(tt, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !streamed.Equal(want) || !want.Equal(oracle(events, tt)) {
					t.Fatalf("at %d: streamed %v, snapshot %v, oracle %v", tt, streamed, want, oracle(events, tt))
				}
			}
		})
	}
}
