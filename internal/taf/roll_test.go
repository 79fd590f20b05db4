package taf

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hgs/internal/graph"
	"hgs/internal/partition"
	"hgs/internal/temporal"
)

// perPointGraph is the per-point construction the forward replay
// replaced, kept as a reference: every member replays its own history to
// tt, then the subgraph induced on the members alive at tt is taken.
func perPointGraph(s *SoN, tt temporal.Time) *graph.Graph {
	g := graph.New()
	var ids []graph.NodeID
	for _, nt := range s.Collect() {
		if ns := nt.StateAt(tt); ns != nil {
			g.PutNode(ns)
			ids = append(ids, ns.ID)
		}
	}
	return g.Subgraph(ids)
}

// inducedOracle replays the whole event log to tt, clamped into the
// SoN's span, and keeps the subgraph induced on the members alive then.
func inducedOracle(events []graph.Event, s *SoN, tt temporal.Time) *graph.Graph {
	iv := s.Span()
	tt = max(min(tt, iv.End-1), iv.Start)
	full := oracle(events, tt)
	var alive []graph.NodeID
	for _, id := range s.IDs() {
		if full.Has(id) {
			alive = append(alive, id)
		}
	}
	return full.Subgraph(alive)
}

// rollPoints samples the span unsorted, with duplicates, outside both
// ends, and exactly at and just before change points.
func rollPoints(s *SoN) []temporal.Time {
	iv := s.Span()
	mid := iv.Start + (iv.End-iv.Start)/2
	pts := []temporal.Time{iv.End + 50, mid, iv.Start - 20, mid, iv.Start, iv.End - 1, iv.End}
	cps := s.ChangePoints()
	for i := 0; i < len(cps); i += max(1, len(cps)/6) {
		pts = append(pts, cps[i], cps[i]-1)
	}
	return pts
}

// rollSoNs returns the four kinds of SoN the replay must handle.
func rollSoNs(t *testing.T, h *Handler) map[string]*SoN {
	t.Helper()
	lo, hi, err := h.tgi.TimeRange()
	if err != nil {
		t.Fatal(err)
	}
	full, err := SON(h).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	pre, err := SON(h).Select(func(id graph.NodeID) bool { return id%3 != 0 }).
		Timeslice(temporal.NewInterval(lo+(hi-lo)/5, hi-(hi-lo)/5)).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*SoN{
		"full":         full,
		"select-odd":   full.Select(func(nt *NodeT) bool { return nt.ID()%2 == 1 }),
		"timeslice":    full.Timeslice(temporal.NewInterval(lo+(hi-lo)/3, hi-(hi-lo)/4)),
		"fetch-select": pre,
	}
}

// TestSoNRollMatchesPerPoint checks that the graph Evolution hands its
// quantity equals, at every point, both the per-point construction and
// the induced oracle, and that AliveCountSeries and Graph agree with it.
func TestSoNRollMatchesPerPoint(t *testing.T) {
	const seeds = 30
	for seed := int64(1); seed <= seeds; seed++ {
		events := genHistory(seed, 300, 30)
		h := buildHandler(t, events, 2)
		for kind, son := range rollSoNs(t, h) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, kind), func(t *testing.T) {
				pts := rollPoints(son)
				orig := slices.Clone(pts)
				var seen []*graph.Graph
				series := Evolution(son, func(g *graph.Graph) float64 {
					seen = append(seen, g.Clone())
					return float64(g.NumEdges())
				}, 0, pts)
				if !slices.Equal(pts, orig) {
					t.Fatal("Evolution reordered the caller's points")
				}
				if len(series) != len(pts) || len(seen) != len(pts) {
					t.Fatalf("%d samples, %d graphs for %d points", len(series), len(seen), len(pts))
				}
				alive := AliveCountSeries(son, pts)
				for i, p := range series {
					if i > 0 && series[i-1].Time > p.Time {
						t.Fatalf("series not chronological: %v", series)
					}
					got := seen[i]
					if want := perPointGraph(son, p.Time); !got.Equal(want) {
						t.Fatalf("t=%d: rolled %v, per-point %v", p.Time, got, want)
					}
					if want := inducedOracle(events, son, p.Time); !got.Equal(want) {
						t.Fatalf("t=%d: rolled %v, oracle %v", p.Time, got, want)
					}
					if p.Value != float64(got.NumEdges()) {
						t.Fatalf("t=%d: value %v for a graph of %d edges", p.Time, p.Value, got.NumEdges())
					}
					if one := son.Graph(p.Time); !one.Equal(got) {
						t.Fatalf("t=%d: Graph %v, rolled %v", p.Time, one, got)
					}
					n := 0
					for _, nt := range son.Collect() {
						if nt.StateAt(p.Time) != nil {
							n++
						}
					}
					if alive[i].Time != p.Time || alive[i].Value != float64(n) {
						t.Fatalf("alive %v at %d, want %d", alive[i], p.Time, n)
					}
				}
			})
		}
	}
}

// TestSoNRollCreatesMemberViaOutsideEdge pins the case where a member
// exists only because an edge to a non-member recreated it: in seed 1,
// node 7 is removed at 390 and comes back at 610 through AddEdge(24->7),
// so the odd-id SoN holds node 7 at 928 with no edge.
func TestSoNRollCreatesMemberViaOutsideEdge(t *testing.T) {
	events := genHistory(1, 400, 30)
	full, err := SON(buildHandler(t, events, 2)).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	odd := full.Select(func(nt *NodeT) bool { return nt.ID()%2 == 1 })
	got := odd.Graph(928)
	if !got.Has(7) {
		t.Fatal("node 7 missing at 928")
	}
	if want := perPointGraph(odd, 928); !got.Equal(want) {
		t.Fatalf("rolled %v, per-point %v", got, want)
	}
	if want := inducedOracle(events, odd, 928); !got.Equal(want) {
		t.Fatalf("rolled %v, oracle %v", got, want)
	}
}

// TestSoNGraphIsCallersAndLeavesSoNIntact checks that mutating the graph
// Graph returns changes neither the SoN's initial states nor a second
// Graph.
func TestSoNGraphIsCallersAndLeavesSoNIntact(t *testing.T) {
	son, err := SON(newHandler(t, 2)).Timeslice(temporal.NewInterval(1000, 3000)).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	const tt = 2000
	first := son.Graph(tt)
	want := first.Clone()
	first.Range(func(ns *graph.NodeState) bool {
		for k := range ns.Attrs {
			ns.Attrs[k] = "scribbled"
		}
		for _, es := range ns.Edges {
			es.Attrs = graph.Attrs{"scribbled": "yes"}
		}
		return true
	})
	for _, id := range first.NodeIDs() {
		first.RemoveNode(id)
	}
	if again := son.Graph(tt); !again.Equal(want) {
		t.Fatalf("second Graph %v differs from the first %v", again, want)
	}
}

// TestSoNRollLeavesNodeTsIntact rolls SoNs whose temporal nodes persist
// across rolls (a cached RDD of the fetched, timesliced and projected
// kinds) and requires the members' own states and a second roll to be
// unchanged: the roll shares the members' initial states and must copy
// one before its first write.
func TestSoNRollLeavesNodeTsIntact(t *testing.T) {
	events := genHistory(5, 300, 30)
	h := buildHandler(t, events, 2)
	full, err := SON(h).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	iv := full.Span()
	mid := iv.Start + (iv.End-iv.Start)/3
	for name, s := range map[string]*SoN{
		"fetched":   full,
		"timeslice": full.Timeslice(temporal.NewInterval(mid, iv.End)),
		"project":   full.Project("label"),
	} {
		t.Run(name, func(t *testing.T) {
			s = &SoN{h: s.h, span: s.span, rdd: s.rdd.Cache()}
			pts := EvenTimepoints(s.Span(), 6)
			before := make(map[graph.NodeID][]*graph.NodeState)
			for _, nt := range s.Collect() {
				for _, tt := range pts {
					before[nt.ID()] = append(before[nt.ID()], nt.StateAt(tt))
				}
			}
			var first []*graph.Graph
			Evolution(s, func(g *graph.Graph) float64 { first = append(first, g.Clone()); return 0 }, 0, pts)
			for i, tt := range pts {
				if again := s.Graph(tt); !again.Equal(first[i]) {
					t.Fatalf("t=%d: second roll %v, first %v", tt, again, first[i])
				}
			}
			for _, nt := range s.Collect() {
				for i, tt := range pts {
					if got, want := nt.StateAt(tt), before[nt.ID()][i]; (got == nil) != (want == nil) || (got != nil && !got.Equal(want)) {
						t.Fatalf("node %d at %d is %v after the rolls, was %v", nt.ID(), tt, got, want)
					}
				}
			}
		})
	}
}

// genEdgeAttrHistory is genHistory with edge attribute events among the
// structural ones, and node attribute deletions: SetEdgeAttr creates its
// edge, so an edge comes and goes through attribute events as well as
// through AddEdge, RemoveEdge and RemoveNode.
func genEdgeAttrHistory(seed int64, n, idSpace int) []graph.Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]graph.Event, 0, n)
	for i := 0; i < n; i++ {
		e := graph.Event{Time: temporal.Time(10 * (i + 1)), Node: graph.NodeID(rng.Intn(idSpace)), Other: graph.NodeID(rng.Intn(idSpace))}
		switch r := rng.Intn(20); {
		case r < 4:
			e.Kind, e.Other = graph.AddNode, 0
		case r < 9:
			e.Kind = graph.AddEdge
		case r < 11:
			e.Kind = graph.RemoveEdge
		case r < 13:
			e.Kind, e.Other = graph.RemoveNode, 0
		case r < 16:
			e.Kind, e.Key, e.Value = graph.SetEdgeAttr, "w", []string{"1", "2"}[rng.Intn(2)]
		case r < 18:
			e.Kind, e.Key = graph.DelEdgeAttr, "w"
		case r < 19:
			e.Kind, e.Other, e.Key, e.Value = graph.SetNodeAttr, 0, "label", "x"
		default:
			e.Kind, e.Other, e.Key = graph.DelNodeAttr, 0, "label"
		}
		evs = append(evs, e)
	}
	return evs
}

// TestSoNRollMatchesPerPointOnAttrHistories checks the forward replay
// as TestSoNRollMatchesPerPoint does — the rolled graph equals the
// per-point construction and the induced oracle at every point — on
// histories with edge attribute events and node attribute deletions,
// indexed with random and with locality micro-partitioning.
func TestSoNRollMatchesPerPointOnAttrHistories(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		events := genEdgeAttrHistory(seed, 300, 20)
		for _, p := range []partition.Kind{partition.Random, partition.Locality} {
			h := buildPartitionedHandler(t, events, 2, p)
			for kind, son := range rollSoNs(t, h) {
				t.Run(fmt.Sprintf("seed%d/%v/%s", seed, p, kind), func(t *testing.T) {
					pts := rollPoints(son)
					var seen []*graph.Graph
					series := Evolution(son, func(g *graph.Graph) float64 {
						seen = append(seen, g.Clone())
						return 0
					}, 0, pts)
					for i, pt := range series {
						if want := perPointGraph(son, pt.Time); !seen[i].Equal(want) {
							t.Fatalf("t=%d: rolled %v, per-point %v", pt.Time, seen[i], want)
						}
						if want := inducedOracle(events, son, pt.Time); !seen[i].Equal(want) {
							t.Fatalf("t=%d: rolled %v, oracle %v", pt.Time, seen[i], want)
						}
					}
				})
			}
		}
	}
}

// TestEvolutionDensityMatchesFreshGraph checks the pair count the rolled
// graph keeps between points: at every point, the density Evolution
// reports equals the density of Graph's copy, counted afresh, and of the
// induced oracle, on histories with node removals and edge attribute
// events.
func TestEvolutionDensityMatchesFreshGraph(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		events := genEdgeAttrHistory(seed, 300, 20)
		h := buildHandler(t, events, 2)
		for kind, son := range rollSoNs(t, h) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, kind), func(t *testing.T) {
				for _, pts := range [][]temporal.Time{nil, rollPoints(son)} {
					for _, p := range Evolution(son, (*graph.Graph).Density, 8, pts) {
						if d := son.Graph(p.Time).Density(); p.Value != d {
							t.Fatalf("t=%d: Evolution density %v, Graph's %v", p.Time, p.Value, d)
						}
						if d := inducedOracle(events, son, p.Time).Density(); p.Value != d {
							t.Fatalf("t=%d: Evolution density %v, oracle's %v", p.Time, p.Value, d)
						}
					}
				}
			})
		}
	}
}

// BenchmarkEvolution measures Evolution of density at 8 points over a
// generated SoN (fetched once, outside the timer).
func BenchmarkEvolution(b *testing.B) {
	son, err := SON(buildHandler(b, genHistory(7, 6000, 1500), 2)).Fetch()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evolutionSink = Evolution(son, (*graph.Graph).Density, 8, nil)
	}
}

var evolutionSink Series

// BenchmarkSoNFetch measures the SoN fetch of BenchmarkEvolution's
// history with a warm cache: one plan served by the decoded-part cache,
// the partitions' initial states assembled and their micro-eventlists
// split into per-node histories.
//
//	go test ./internal/taf -run '^$' -bench SoNFetch -benchmem
func BenchmarkSoNFetch(b *testing.B) {
	q := SON(buildHandler(b, genHistory(7, 6000, 1500), 2))
	if _, err := q.Fetch(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		son, err := q.Fetch()
		if err != nil {
			b.Fatal(err)
		}
		sonSink = son
	}
}

var sonSink *SoN

// BenchmarkNodeComputeTemporal evaluates a function at every change
// point of one temporal node with a few hundred of them: one forward
// replay of the node's history, a state copy per point.
//
//	go test ./internal/taf -run '^$' -bench NodeComputeTemporal -benchmem
func BenchmarkNodeComputeTemporal(b *testing.B) {
	son, err := SON(buildHandler(b, genHistory(7, 3000, 10), 1)).Select(func(id graph.NodeID) bool { return id == 3 }).Fetch()
	if err != nil {
		b.Fatal(err)
	}
	if n := len(son.Collect()[0].ChangePoints()); n < 200 {
		b.Fatalf("node 3 has %d change points, want >= 200", n)
	}
	degree := func(ns *graph.NodeState) int {
		if ns == nil {
			return -1
		}
		return ns.Degree()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		computeSink = NodeComputeTemporal(son, degree, nil)
	}
}

var computeSink map[graph.NodeID][]Timed[int]
