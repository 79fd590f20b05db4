package core

import (
	"bytes"
	"strings"
	"testing"

	"hgs/internal/delta"
	"hgs/internal/fetch"
	"hgs/internal/graph"
)

// TestEncodedBodiesOnlyOnUnwrittenStates pins which states carry the
// body bytes of the row they were decoded from, which EncodeDelta
// copies instead of encoding the state: a state fetch decodes and
// freezes does, and no state written or copied since does — a graph's
// copy after an edge write, a Clone, a Subgraph restriction, an end
// state a replay published after changing the node. A delta mixing
// carrying and fresh states encodes to the bytes of their deep clones.
func TestEncodedBodiesOnlyOnUnwrittenStates(t *testing.T) {
	events := endStateHistory(23, 300, 30)
	tgi := buildSmall(t, smallConfig(), events)
	// smallConfig's eventlists hold 25 events: the snapshot before the
	// list of events[125:150] and one in its middle.
	before, err := tgi.GetSnapshot(events[124].Time, nil)
	if err != nil {
		t.Fatal(err)
	}
	tt := events[140].Time
	g, err := tgi.GetSnapshot(tt, nil)
	if err != nil {
		t.Fatal(err)
	}

	var carrying, fresh []*graph.NodeState
	g.Range(func(ns *graph.NodeState) bool {
		if ns.Encoded() != "" {
			carrying = append(carrying, ns)
		} else {
			fresh = append(fresh, ns)
		}
		return true
	})
	if len(carrying) == 0 || len(fresh) == 0 {
		t.Fatalf("snapshot@%d: %d states carry their body, %d do not; want both", tt, len(carrying), len(fresh))
	}

	// End states the replay of events[125:141] changed carry none.
	tm, err := tgi.timespanFor(tt)
	if err != nil {
		t.Fatal(err)
	}
	written := 0
	for sid := 0; sid < tgi.cfg.HorizontalPartitions; sid++ {
		parts, _ := tgi.fx.Cache().Group(fetch.GroupKey{Table: TableEvents, TSID: tm.TSID, SID: sid, DID: tm.leafFor(tt)})
		for _, p := range parts {
			x := p.Ends()
			for s := int32(0); s < int32(x.Len()); s++ {
				end, ok := x.End(s)
				if !ok || end == nil || end.Equal(before.Node(end.ID)) {
					continue
				}
				written++
				if end.Encoded() != "" {
					t.Fatalf("node %d: the end state a replay wrote carries a body", end.ID)
				}
			}
		}
	}
	if written == 0 {
		t.Fatal("no end state differs from the state before its list")
	}

	// Copies carry none; the state they copied keeps its body.
	var u *graph.NodeState
	for _, ns := range carrying {
		if ns.Degree() > 0 {
			u = ns
			break
		}
	}
	if u == nil {
		t.Fatal("no carrying state has a neighbor")
	}
	body := strings.Clone(u.Encoded())
	w := g.Clone()
	w.Range(func(ns *graph.NodeState) bool {
		if ns.Encoded() != "" {
			t.Fatalf("node %d of a Clone carries a body", ns.ID)
		}
		return true
	})
	sub := g.Subgraph([]graph.NodeID{u.ID})
	if sub.Node(u.ID).Encoded() != "" {
		t.Fatalf("node %d restricted by Subgraph carries a body", u.ID)
	}
	g.AddEdge(u.ID, -1)
	if g.Node(u.ID).Encoded() != "" {
		t.Fatalf("node %d carries a body after an edge write", u.ID)
	}
	if u.Encoded() != body {
		t.Fatalf("node %d: an edge write through a graph changed the body the state carries", u.ID)
	}

	// The copied bodies are the encodings of the states.
	mixed, clones := delta.New(), delta.New()
	for _, ns := range append(carrying, fresh...) {
		mixed.Put(ns)
		clones.Put(ns.Clone())
	}
	a, err := tgi.cdc.EncodeDelta(mixed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tgi.cdc.EncodeDelta(clones)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("a delta of carrying and fresh states encodes otherwise than their deep clones")
	}
}
