package fetch

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"hgs/internal/codec"
	"hgs/internal/graph"
	"hgs/internal/temporal"
)

// Ends is the end index of a cached micro-eventlist: one slot per
// endpoint of its events, holding the time of the endpoint's last event
// in the list and, once a replay publishes it, the endpoint's state at
// the end of the list. A node whose last event is at or before t has
// that state at t too, whatever t is, so a replay to t can install it by
// pointer instead of replaying the node (core's materialize).
//
// An end state is the state a replay of the list reaches from the path
// states it starts on. Every replay of the list starts on the same path,
// the root-to-leaf path of the list's own leaf, so an end state is valid
// for every replay of its part; the index knows nothing of paths, and a
// replay that started elsewhere must not read or publish end states.
//
// Published states are frozen and shared, like decoded delta states. The
// index and its published states are charged to the cache entry that
// holds the part — a state its encoded size plus stateOverhead — and go
// with it on eviction or Purge.
type Ends struct {
	slots []endSlot
	// of holds, per event of the list, the slots of its Node and Other
	// endpoints; Other is -1 for a node event or a self-loop.
	of  [][2]int32
	row *eventRow
}

// endSlot is one endpoint's entry of an end index. end is nil until a
// replay publishes the endpoint's end state; absentEnd marks a node
// absent at the end of the list.
type endSlot struct {
	id   graph.NodeID
	last temporal.Time
	end  atomic.Pointer[graph.NodeState]
}

// absentEnd is the end state published for a node absent at the end of
// its list. It is never handed out: End reports it as nil.
var absentEnd = new(graph.NodeState)

// stateOverhead is the fixed cache charge per published end state on top
// of its encoded size: the state's header, its maps and its slot.
const stateOverhead = 64

// eventRow is the end index of a micro-eventlist part of a complete
// cached group and the cache entry that holds the part: AddGroup
// attaches it, and Part.Ends builds the index on first use.
type eventRow struct {
	once  sync.Once
	ends  *Ends
	cache *Cache
	entry *cacheEntry
}

// Ends returns p's end index, building it once on first use, or nil when
// p is not a micro-eventlist of a group resident in a cache: without a
// cache to keep them an index and its end states would serve one query
// and cost more than its replay.
func (p Part) Ends() *Ends {
	if p.ev == nil {
		return nil
	}
	p.ev.once.Do(func() { p.ev.ends = newEnds(p.Events, p.ev) })
	return p.ev.ends
}

// newEnds indexes a chronological event list.
func newEnds(events []graph.Event, row *eventRow) *Ends {
	x := &Ends{of: make([][2]int32, len(events)), row: row}
	slotOf := make(map[graph.NodeID]int32)
	slot := func(id graph.NodeID, at temporal.Time) int32 {
		s, ok := slotOf[id]
		if !ok {
			s = int32(len(x.slots))
			slotOf[id] = s
			x.slots = append(x.slots, endSlot{id: id})
		}
		x.slots[s].last = at
		return s
	}
	for i, e := range events {
		x.of[i] = [2]int32{slot(e.Node, e.Time), -1}
		if e.Kind.IsEdge() && e.Other != e.Node {
			x.of[i][1] = slot(e.Other, e.Time)
		}
	}
	row.cache.charge(row.entry, int64(len(x.of))*int64(unsafe.Sizeof(x.of[0]))+int64(len(x.slots))*int64(unsafe.Sizeof(endSlot{})))
	return x
}

// Len returns the number of slots.
func (x *Ends) Len() int { return len(x.slots) }

// Slot returns the slot of event i's Node endpoint (side 0) or Other
// endpoint (side 1); -1 when the event has no such endpoint (side 1 of a
// node event or a self-loop).
func (x *Ends) Slot(i, side int) int32 { return x.of[i][side] }

// ID returns the node of slot s.
func (x *Ends) ID(s int32) graph.NodeID { return x.slots[s].id }

// Last returns the time of slot s's last event in the list.
func (x *Ends) Last(s int32) temporal.Time { return x.slots[s].last }

// End returns slot s's published end state: ok is false while none is
// published, and ns is nil when the node is absent at the end of the
// list. The state is frozen and shared: install it by pointer.
func (x *Ends) End(s int32) (ns *graph.NodeState, ok bool) {
	ns = x.slots[s].end.Load()
	if ns == absentEnd {
		return nil, true
	}
	return ns, ns != nil
}

// Publish freezes ns and publishes it as slot s's end state (nil: the
// node is absent at the end of the list) unless a state is published
// already, and charges it to the cache entry holding the part. ns must
// be the node's state after a replay of every event of the node in the
// list.
func (x *Ends) Publish(s int32, ns *graph.NodeState) {
	end, b := absentEnd, int64(negOverhead)
	if ns != nil {
		ns.Freeze()
		end = ns
	}
	if !x.slots[s].end.CompareAndSwap(nil, end) {
		return
	}
	if ns != nil {
		b = int64(codec.StateSize(ns)) + stateOverhead
	}
	x.row.cache.charge(x.row.entry, b)
}
