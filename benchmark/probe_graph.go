package main

import "hgs/internal/graph"

// probeGraph times the replay of raw events into a graph, the cost under
// every eventlist application and under the oracle.
func probeGraph(events []graph.Event, m metrics) {
	if len(events) > 20000 {
		events = events[:20000]
	}
	ns, _ := perCall(minProbeIters/len(events)+1, func() { graph.FromEvents(events) })
	m["graph.from_events_ns_per_event"] = ns / float64(len(events))
}
