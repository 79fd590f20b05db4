package delta

import (
	"hgs/internal/graph"
	"hgs/internal/temporal"
)

// EventList is a chronologically sorted set of events with a time scope
// (paper Example 2). A partitioned eventlist (Example 3) is an EventList
// whose events have been restricted to a node set.
type EventList struct {
	Scope  temporal.Interval
	Events []graph.Event
}

// NewEventList wraps events, which must already be chronological, with
// their covering scope.
func NewEventList(scope temporal.Interval, events []graph.Event) *EventList {
	return &EventList{Scope: scope, Events: events}
}

// ApplyTo replays the eventlist onto a mutable graph in order.
func (el *EventList) ApplyTo(g *graph.Graph) error {
	return g.ApplyAll(el.Events)
}
