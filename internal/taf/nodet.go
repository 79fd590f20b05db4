package taf

import (
	"hgs/internal/core"
	"hgs/internal/graph"
	"hgs/internal/temporal"
)

// NodeT is a temporal node (paper Definition 6): the sequence of all and
// only the states of one node over a time range, stored as the initial
// state plus chronologically sorted events — exactly the physical layout
// §5.2 argues for (chronological access is the common pattern). The
// initial state is frozen (graph.NodeState.Freeze): the SoN fetch shares
// it with the fetch cache, and the SoN replay shares it with its graph.
type NodeT struct {
	h *core.NodeHistory
}

// newNodeT wraps a fetched history.
func newNodeT(h *core.NodeHistory) *NodeT { return &NodeT{h: h} }

// ID returns the node id.
func (nt *NodeT) ID() graph.NodeID { return nt.h.ID }

// Span returns the time range covered by this temporal node.
func (nt *NodeT) Span() temporal.Interval { return nt.h.Interval }

// StartTime and EndTime expose the span bounds (paper: GetStartTime /
// GetEndTime).
func (nt *NodeT) StartTime() temporal.Time { return nt.h.Interval.Start }

// EndTime returns the exclusive end of the span.
func (nt *NodeT) EndTime() temporal.Time { return nt.h.Interval.End }

// StateAt returns the node state as of tt (paper: GetVersionAt), nil if
// the node does not exist then.
func (nt *NodeT) StateAt(tt temporal.Time) *graph.NodeState { return nt.h.StateAt(tt) }

// Versions returns the distinct states with validity intervals (paper:
// getVersions).
func (nt *NodeT) Versions() []graph.Version { return nt.h.Versions() }

// NeighborIDsAt returns neighbor ids at tt (paper: getNeighborIDsAt).
func (nt *NodeT) NeighborIDsAt(tt temporal.Time) []graph.NodeID {
	ns := nt.StateAt(tt)
	if ns == nil {
		return nil
	}
	return ns.Neighbors()
}

// ChangePoints returns the distinct times at which the node changed
// within its span (the default evaluation points of the temporal map
// operators).
func (nt *NodeT) ChangePoints() []temporal.Time { return core.ChangeTimes(nt.h.Events) }

// Events returns the raw change stream.
func (nt *NodeT) Events() []graph.Event { return nt.h.Events }

// Timeslice narrows the temporal node to the overlap of its span and iv,
// re-deriving the initial state at the new start.
func (nt *NodeT) Timeslice(iv temporal.Interval) *NodeT {
	sub, ok := nt.h.Interval.Intersect(iv)
	if !ok {
		sub = temporal.Interval{Start: iv.Start, End: iv.Start}
	}
	h := &core.NodeHistory{ID: nt.h.ID, Interval: sub, Initial: frozen(nt.h.StateAt(sub.Start))}
	for _, e := range nt.h.Events {
		if e.Time > sub.Start && e.Time < sub.End {
			h.Events = append(h.Events, e)
		}
	}
	return &NodeT{h: h}
}

// Project returns a copy whose states only carry the given attribute
// keys (the paper's Filter operator trims the attribute dimension).
func (nt *NodeT) Project(keys ...string) *NodeT {
	keep := make(map[string]bool, len(keys))
	for _, k := range keys {
		keep[k] = true
	}
	trim := func(ns *graph.NodeState) *graph.NodeState {
		if ns == nil {
			return nil
		}
		c := ns.Clone()
		for k := range c.Attrs {
			if !keep[k] {
				delete(c.Attrs, k)
			}
		}
		return frozen(c)
	}
	h := &core.NodeHistory{ID: nt.h.ID, Interval: nt.h.Interval, Initial: trim(nt.h.Initial)}
	for _, e := range nt.h.Events {
		if (e.Kind == graph.SetNodeAttr || e.Kind == graph.DelNodeAttr) && !keep[e.Key] {
			continue
		}
		h.Events = append(h.Events, e)
	}
	return &NodeT{h: h}
}

// frozen freezes a fresh initial state, which may be nil.
func frozen(ns *graph.NodeState) *graph.NodeState {
	if ns != nil {
		ns.Freeze()
	}
	return ns
}

// Iterator walks the node's states in chronological order (paper:
// GetIterator / Iterator.GetNextVersion).
type Iterator struct {
	versions []graph.Version
	pos      int
}

// Iterator returns a version iterator over the node's span.
func (nt *NodeT) Iterator() *Iterator {
	return &Iterator{versions: nt.Versions()}
}

// Next returns the next version and false when exhausted.
func (it *Iterator) Next() (graph.Version, bool) {
	if it.pos >= len(it.versions) {
		return graph.Version{}, false
	}
	v := it.versions[it.pos]
	it.pos++
	return v, true
}
