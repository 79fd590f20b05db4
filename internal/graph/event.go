package graph

import (
	"cmp"
	"fmt"
	"slices"

	"hgs/internal/temporal"
)

// EventKind enumerates the atomic change types of the paper's data model
// (§3.1): structural changes and attribute changes.
type EventKind uint8

const (
	// AddNode creates a node (no-op if it already exists).
	AddNode EventKind = iota + 1
	// RemoveNode deletes a node and all incident edges.
	RemoveNode
	// AddEdge creates a directed edge Node->Other (no-op if present).
	AddEdge
	// RemoveEdge deletes the directed edge Node->Other.
	RemoveEdge
	// SetNodeAttr sets attribute Key=Value on Node.
	SetNodeAttr
	// DelNodeAttr removes attribute Key from Node.
	DelNodeAttr
	// SetEdgeAttr sets attribute Key=Value on edge Node->Other.
	SetEdgeAttr
	// DelEdgeAttr removes attribute Key from edge Node->Other.
	DelEdgeAttr
)

var eventKindNames = [...]string{
	AddNode: "AddNode", RemoveNode: "RemoveNode",
	AddEdge: "AddEdge", RemoveEdge: "RemoveEdge",
	SetNodeAttr: "SetNodeAttr", DelNodeAttr: "DelNodeAttr",
	SetEdgeAttr: "SetEdgeAttr", DelEdgeAttr: "DelEdgeAttr",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// IsEdge reports whether the event concerns an edge (and therefore touches
// two node states in the node-centric model).
func (k EventKind) IsEdge() bool {
	switch k {
	case AddEdge, RemoveEdge, SetEdgeAttr, DelEdgeAttr:
		return true
	}
	return false
}

// Event is the paper's atomic change (Example 1): one modification to the
// graph at one timepoint.
type Event struct {
	Time  temporal.Time
	Kind  EventKind
	Node  NodeID // subject node, or source of an edge event
	Other NodeID // target of an edge event
	Key   string // attribute key for attr events
	Value string // attribute value for Set* events
}

func (e Event) String() string {
	switch {
	case e.Kind.IsEdge() && (e.Kind == SetEdgeAttr || e.Kind == DelEdgeAttr):
		return fmt.Sprintf("%d:%v(%d->%d,%s=%s)", e.Time, e.Kind, e.Node, e.Other, e.Key, e.Value)
	case e.Kind.IsEdge():
		return fmt.Sprintf("%d:%v(%d->%d)", e.Time, e.Kind, e.Node, e.Other)
	case e.Kind == SetNodeAttr || e.Kind == DelNodeAttr:
		return fmt.Sprintf("%d:%v(%d,%s=%s)", e.Time, e.Kind, e.Node, e.Key, e.Value)
	default:
		return fmt.Sprintf("%d:%v(%d)", e.Time, e.Kind, e.Node)
	}
}

// Touches reports whether applying the event can modify the state of node
// id. Edge events touch both endpoints because edges are replicated with
// both endpoint states.
func (e Event) Touches(id NodeID) bool {
	if e.Node == id {
		return true
	}
	return e.Kind.IsEdge() && e.Other == id
}

// CompareEvents is the deterministic total order over events: by time,
// then by the remaining fields. Original events have unique times; only
// the build-time expansion of RemoveNode produces same-time groups, and
// those converge to the same state under any order when applied with
// Apply to a graph holding both endpoints of every edge. It puts a
// RemoveNode (kind 2) before the RemoveEdges (kind 4) of its expansion,
// so a replay that writes one side at a time (Graph.ApplySide) must keep
// stored order instead. It orders the merged event streams of history
// reads and of Append's span recovery.
func CompareEvents(a, b Event) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Node, b.Node); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Other, b.Other); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.Value, b.Value)
}

// ExpandRemoveNode rewrites one event into the sequence indexes actually
// store: RemoveNode(v) becomes explicit RemoveEdge events for every edge
// incident on v in the current state w (deterministic order), followed by
// the RemoveNode itself, so that neighbors' change logs record the loss
// of their edges. All other events pass through unchanged. The
// synthesized events share the original timestamp; applying the group
// with Apply in any order converges to the same state, while a replay
// of one side (Graph.ApplySide) relies on the removals coming first.
func ExpandRemoveNode(w *Graph, e Event) []Event {
	if e.Kind != RemoveNode {
		return []Event{e}
	}
	ns := w.Node(e.Node)
	if ns == nil || len(ns.Edges) == 0 {
		return []Event{e}
	}
	keys := make([]EdgeKey, 0, len(ns.Edges))
	for k := range ns.Edges {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, CompareEdgeKeys)
	out := make([]Event, 0, len(keys)+1)
	for _, k := range keys {
		re := Event{Time: e.Time, Kind: RemoveEdge}
		if k.Out {
			re.Node, re.Other = e.Node, k.Other
		} else {
			re.Node, re.Other = k.Other, e.Node
		}
		out = append(out, re)
	}
	return append(out, e)
}
