package main

import (
	"fmt"
	"math"
	"sort"
)

// The oracle replays the generated events into an in-memory graph, once,
// in time order, and stops at every time a sampled answer refers to. It
// shares no code with the index: what it knows is the event list and
// Graph.Apply.

// check is one comparison the replay makes when it reaches time at.
type check struct {
	at  Time
	cmp func(g *Graph) error
}

// replay applies events in order and runs each check against the graph as
// of its time (all events with Time <= at applied). It returns one message
// per failed check.
func replay(events []Event, checks []check) []string {
	sort.SliceStable(checks, func(i, j int) bool { return checks[i].at < checks[j].at })
	g := newGraph()
	next := 0
	var fails []string
	for _, c := range checks {
		for next < len(events) && events[next].Time <= c.at {
			if err := g.Apply(events[next]); err != nil {
				return append(fails, "oracle replay: "+err.Error())
			}
			next++
		}
		if err := c.cmp(g); err != nil {
			fails = append(fails, err.Error())
		}
	}
	return fails
}

// eventsTouching returns the events on id with lo < Time < hi, or
// lo <= Time when loInclusive.
func eventsTouching(events []Event, id NodeID, lo, hi Time, loInclusive bool) []Event {
	from := sort.Search(len(events), func(i int) bool {
		if loInclusive {
			return events[i].Time >= lo
		}
		return events[i].Time > lo
	})
	var out []Event
	for _, e := range events[from:] {
		if e.Time >= hi {
			break
		}
		if touches(e, id) {
			out = append(out, e)
		}
	}
	return out
}

// checksFor turns one sampled answer into the comparisons that verify it.
func checksFor(events []Event, a answer) []check {
	o := a.op
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s(id=%d t=%d te=%d): %s", o.kind, o.id, o.t, o.te, fmt.Sprintf(format, args...))
	}
	switch o.kind {
	case kindSnapshot:
		return []check{{o.t, func(g *Graph) error {
			if want, got := digestGraph(g), digestGraph(a.graph); want != got {
				return fail("snapshot digest %s, oracle %s (%d vs %d nodes)", got, want, a.graph.NumNodes(), g.NumNodes())
			}
			return nil
		}}}
	case kindNode:
		return []check{{o.t, func(g *Graph) error {
			want := g.Node(o.id)
			if a.absent != (want == nil) {
				return fail("absent=%v, oracle absent=%v", a.absent, want == nil)
			}
			if !statesEqual(a.node, want) {
				return fail("node state differs from oracle")
			}
			return nil
		}}}
	case kindHistory:
		return []check{{o.t, func(g *Graph) error {
			if !statesEqual(a.node, g.Node(o.id)) {
				return fail("initial state differs from oracle")
			}
			want := eventsTouching(events, o.id, o.t, o.te, false)
			if len(want) != len(a.events) {
				return fail("%d events, oracle %d", len(a.events), len(want))
			}
			for i := range want {
				if want[i] != a.events[i] {
					return fail("event %d is %v, oracle %v", i, a.events[i], want[i])
				}
			}
			return nil
		}}}
	case kindChangeTimes:
		return []check{{o.t, func(*Graph) error {
			want := eventsTouching(events, o.id, o.t, o.te, true)
			if len(want) != len(a.times) {
				return fail("%d change times, oracle %d", len(a.times), len(want))
			}
			for i := range want {
				if want[i].Time != a.times[i] {
					return fail("change time %d is %d, oracle %d", i, a.times[i], want[i].Time)
				}
			}
			return nil
		}}}
	case kindKHop1, kindKHop2:
		return []check{{o.t, func(g *Graph) error {
			want := g.KHopIDs(o.id, o.k())
			if len(want) != len(a.members) {
				return fail("%d members, oracle %d", len(a.members), len(want))
			}
			for i := range want {
				if want[i] != a.members[i] {
					return fail("member %d is %d, oracle %d", i, a.members[i], want[i])
				}
			}
			return nil
		}}}
	case kindTAF:
		if len(a.times) != tafPoints || len(a.density) != tafPoints {
			return []check{{o.t, func(*Graph) error { return fail("evolution has %d points, want %d", len(a.density), tafPoints) }}}
		}
		cs := make([]check, 0, tafPoints+1)
		for i := range a.times {
			i := i
			cs = append(cs, check{a.times[i], func(g *Graph) error {
				if want := g.Density(); math.Abs(want-a.density[i]) > 1e-12 {
					return fail("density at %d is %g, oracle %g", a.times[i], a.density[i], want)
				}
				return nil
			}})
		}
		return append(cs, check{o.t, func(*Graph) error {
			// Every event in the open interval is a change point of each
			// node it touches.
			from := sort.Search(len(events), func(i int) bool { return events[i].Time > o.t })
			want := 0
			for _, e := range events[from:] {
				if e.Time >= o.te {
					break
				}
				want++
				if e.Kind.IsEdge() && e.Other != e.Node {
					want++
				}
			}
			if want != a.changes {
				return fail("%d change points, oracle %d", a.changes, want)
			}
			return nil
		}})
	}
	return []check{{o.t, func(*Graph) error { return fail("no oracle for this kind") }}}
}

// verify checks the sampled answers against one replay and returns the
// failure messages.
func verify(events []Event, sampled []answer) []string {
	var checks []check
	for _, a := range sampled {
		checks = append(checks, checksFor(events, a)...)
	}
	return replay(events, checks)
}
