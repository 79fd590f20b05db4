package main

import (
	"hgs/internal/delta"
	"hgs/internal/graph"
	"hgs/internal/temporal"
)

// probeDelta times delta application (the materialization step of every
// snapshot and micro-partition fetch), eventlist replay and delta sum.
func probeDelta(d *decoded, m metrics) {
	nodes := 0
	for _, x := range d.deltas {
		nodes += len(x.Nodes)
	}
	if nodes > 0 {
		ns, allocs := perCall(minProbeIters/nodes+1, func() {
			g := graph.New()
			for _, x := range d.deltas {
				x.ApplyTo(g)
			}
		})
		m["delta.apply_ns_per_node"] = ns / float64(nodes)
		m["delta.apply_allocs_per_node"] = allocs / float64(nodes)

		pairs := 0
		for i := 1; i < len(d.deltas); i++ {
			pairs += len(d.deltas[i-1].Nodes) + len(d.deltas[i].Nodes)
		}
		if pairs > 0 {
			ns, _ = perCall(minProbeIters/pairs+1, func() {
				for i := 1; i < len(d.deltas); i++ {
					d.deltas[i-1].Sum(d.deltas[i])
				}
			})
			m["delta.sum_ns_per_node"] = ns / float64(pairs)
		}
	}
	events := 0
	for _, x := range d.events {
		events += len(x)
	}
	if events > 0 {
		ns, _ := perCall(minProbeIters/events+1, func() {
			g := graph.New()
			for _, x := range d.events {
				// Micro-eventlists replay onto any graph: Apply creates what an event names.
				delta.NewEventList(temporal.Interval{}, x).ApplyTo(g)
			}
		})
		m["delta.eventlist_apply_ns_per_event"] = ns / float64(events)
	}
}
