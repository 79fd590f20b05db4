package fetch

import (
	"testing"
	"unsafe"

	"hgs/internal/codec"
	"hgs/internal/graph"
)

// TestEndsIndexesEveryEndpoint checks the end index of a list: a slot per
// endpoint with its last event's time, an edge event's two slots, one
// slot for a self-loop, first-wins publication, and absence.
func TestEndsIndexesEveryEndpoint(t *testing.T) {
	events := []graph.Event{
		{Time: 10, Kind: graph.AddNode, Node: 1},
		{Time: 20, Kind: graph.AddEdge, Node: 1, Other: 2},
		{Time: 30, Kind: graph.AddEdge, Node: 3, Other: 3},
		{Time: 40, Kind: graph.SetNodeAttr, Node: 2, Key: "k", Value: "v"},
		{Time: 50, Kind: graph.RemoveNode, Node: 3},
	}
	c := NewCache(1 << 20)
	parts := []Part{{PID: 0, Events: events}}
	c.AddGroup(GroupKey{Table: TableEvents}, parts, []int64{100})
	x := parts[0].Ends()
	if x == nil || x != parts[0].Ends() {
		t.Fatal("a cached micro-eventlist has no end index, or a second one")
	}
	if x.Len() != 3 {
		t.Fatalf("%d slots, want one per endpoint: 3", x.Len())
	}
	for i, want := range [][2]graph.NodeID{{1, -1}, {1, 2}, {3, -1}, {2, -1}, {3, -1}} {
		for side := 0; side < 2; side++ {
			s := x.Slot(i, side)
			if (s < 0) != (want[side] < 0) || (s >= 0 && x.ID(s) != want[side]) {
				t.Fatalf("event %d side %d has slot %d, want node %d", i, side, s, want[side])
			}
		}
	}
	last := map[graph.NodeID]int64{1: 20, 2: 40, 3: 50}
	for s := int32(0); s < 3; s++ {
		if got := x.Last(s); int64(got) != last[x.ID(s)] {
			t.Fatalf("node %d's last event at %d, want %d", x.ID(s), got, last[x.ID(s)])
		}
		if _, ok := x.End(s); ok {
			t.Fatalf("node %d has an end state before any publication", x.ID(s))
		}
	}

	first, second := graph.NewNodeState(1), graph.NewNodeState(1)
	x.Publish(0, first)
	x.Publish(0, second)
	if ns, ok := x.End(0); !ok || ns != first {
		t.Fatalf("End = %p, %v; want the first published state %p", ns, ok, first)
	}
	if !isFrozen(first) {
		t.Fatal("a published end state is not frozen")
	}
	x.Publish(2, nil)
	if ns, ok := x.End(2); !ok || ns != nil {
		t.Fatalf("End of a node absent at the end = %v, %v; want nil, true", ns, ok)
	}

	if (Part{Events: events}).Ends() != nil {
		t.Fatal("a micro-eventlist outside any cache has an end index")
	}
	off := []Part{{Events: events}}
	(*Cache)(nil).AddGroup(GroupKey{Table: TableEvents}, off, []int64{100})
	if off[0].Ends() != nil {
		t.Fatal("a micro-eventlist of a disabled cache has an end index")
	}
}

// isFrozen reports whether ns is frozen: a Graph holding it copies it on
// its first write.
func isFrozen(ns *graph.NodeState) bool {
	g := graph.New()
	g.PutNode(ns)
	return g.AddNode(ns.ID) != ns
}

// TestEndsChargedToTheirEntry checks the cache charge of an end index and
// its end states: the entry holding the part grows by the index and by
// each state's encoded size plus stateOverhead, eviction refunds it all,
// and a state published on an evicted part is not charged, though the
// part still serves it.
func TestEndsChargedToTheirEntry(t *testing.T) {
	events := mkEvents(0, 40)
	c := NewCache(4096)
	key := GroupKey{Table: TableEvents, DID: 1}
	parts := []Part{{PID: 0, Events: events}}
	c.AddGroup(key, parts, []int64{500})
	loaded := c.Stats().Bytes
	x := parts[0].Ends()
	index := int64(len(events))*int64(unsafe.Sizeof([2]int32{})) + int64(x.Len())*int64(unsafe.Sizeof(endSlot{}))
	if got := c.Stats().Bytes - loaded; got != index {
		t.Fatalf("the index is charged %d bytes, want %d", got, index)
	}
	ns := graph.NewNodeState(x.ID(0))
	ns.Attrs = graph.Attrs{"k": "v"}
	before := c.Stats().Bytes
	x.Publish(0, ns)
	if got, want := c.Stats().Bytes-before, int64(codec.StateSize(ns))+stateOverhead; got != want {
		t.Fatalf("an end state is charged %d bytes, want %d", got, want)
	}
	before = c.Stats().Bytes
	x.Publish(1, nil)
	x.Publish(1, nil)
	if got := c.Stats().Bytes - before; got != negOverhead {
		t.Fatalf("an absent end is charged %d bytes, want %d once", got, negOverhead)
	}

	// Push the group out with others that fill the budget.
	resident := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.entries[key]
		return ok
	}
	for did := 2; resident() && did < 100; did++ {
		c.AddGroup(GroupKey{Table: TableDeltas, DID: did}, []Part{mkPart(TableDeltas, 0, did)}, []int64{1000})
	}
	if resident() {
		t.Fatal("the eventlist group was never evicted")
	}
	st := c.Stats()
	if want := int64(st.Entries) * (entryOverhead + 1000 + partOverhead); st.Bytes != want {
		t.Fatalf("after eviction %d bytes are charged, the resident groups hold %d", st.Bytes, want)
	}
	x.Publish(2, graph.NewNodeState(x.ID(2)))
	if b := c.Stats().Bytes; b != st.Bytes {
		t.Fatalf("an end state published on an evicted part was charged: %d bytes, %d before", b, st.Bytes)
	}
	if got, ok := x.End(2); !ok || got == nil {
		t.Fatal("an evicted part lost the end state published on it")
	}
}
