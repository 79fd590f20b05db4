package core

import (
	"slices"
	"testing"

	"hgs/internal/graph"
	"hgs/internal/temporal"
)

// TestHistoryKeepsRemovalOrder: a history lists a RemoveNode's edge
// removals before it, in the order graph.ExpandRemoveNode stores them,
// and its states still match the oracle.
func TestHistoryKeepsRemovalOrder(t *testing.T) {
	events := genHistory(21, 900, 40)
	tgi := buildSmall(t, smallConfig(), events)
	end := events[len(events)-1].Time + 1
	checked := 0
	for i, raw := range events {
		if raw.Kind != graph.RemoveNode {
			continue
		}
		v, ts := raw.Node, events[max(i-1, 0)].Time
		want := graph.ExpandRemoveNode(oracle(events, ts), raw)
		if len(want) < 3 {
			continue // the order of fewer than two removals says little
		}
		want = slices.Compact(want) // a self-loop expands twice
		h, err := tgi.GetNodeHistory(v, ts, end, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := eventsAt(h.Events, raw.Time); !slices.Equal(got, want) {
			t.Fatalf("node history of %d at %d: %v, stored order %v", v, raw.Time, got, want)
		}
		sh, err := tgi.GetKHopHistory(v, 1, ts, end, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := eventsAt(sh.Events, raw.Time); !slices.Equal(got, want) {
			t.Fatalf("1-hop history of %d at %d: %v, stored order %v", v, raw.Time, got, want)
		}
		points := []temporal.Time{raw.Time - 1, raw.Time, end - 1}
		for j, ns := range h.StatesAt(points) {
			if want := oracle(events, points[j]).Node(v); !nodeStatesEqual(ns, want) {
				t.Fatalf("node %d at %d differs from the oracle", v, points[j])
			}
		}
		for j, g := range sh.StatesAt(points) {
			if want := oracle(events, points[j]).Subgraph(sh.Members); !g.Equal(want) {
				t.Fatalf("1-hop history of %d at %d differs from the oracle", v, points[j])
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no RemoveNode with two or more edges in the history")
	}
}

// eventsAt returns the events at time tt.
func eventsAt(events []graph.Event, tt temporal.Time) []graph.Event {
	var out []graph.Event
	for _, e := range events {
		if e.Time == tt {
			out = append(out, e)
		}
	}
	return out
}
