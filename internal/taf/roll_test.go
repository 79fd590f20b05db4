package taf

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hgs/internal/graph"
	"hgs/internal/partition"
	"hgs/internal/sparklite"
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

// hubHistory is a scripted history around hub node 0: it gains an edge
// to and from every other node, a self-loop and edge attributes, some of
// them deleted again; it is removed with all its edges, re-created with
// them, and removed once more, while its neighbours link among
// themselves.
func hubHistory(nodes int) []graph.Event {
	const hub = graph.NodeID(0)
	var evs []graph.Event
	tt := temporal.Time(0)
	add := func(e graph.Event) {
		tt += 10
		e.Time = tt
		evs = append(evs, e)
	}
	link := func(label string) {
		add(graph.Event{Kind: graph.AddEdge, Node: hub, Other: hub})
		add(graph.Event{Kind: graph.SetNodeAttr, Node: hub, Key: "label", Value: label})
		for id := graph.NodeID(1); id < graph.NodeID(nodes); id++ {
			add(graph.Event{Kind: graph.AddEdge, Node: hub, Other: id})
			if id%3 == 0 {
				add(graph.Event{Kind: graph.AddEdge, Node: id, Other: hub})
			}
			if id%4 == 0 {
				add(graph.Event{Kind: graph.SetEdgeAttr, Node: hub, Other: id, Key: "w", Value: label})
			}
		}
		add(graph.Event{Kind: graph.SetEdgeAttr, Node: hub, Other: hub, Key: "w", Value: label})
		for id := graph.NodeID(4); id < graph.NodeID(nodes); id += 8 {
			add(graph.Event{Kind: graph.DelEdgeAttr, Node: hub, Other: id, Key: "w"})
		}
	}
	for id := graph.NodeID(1); id < graph.NodeID(nodes); id++ {
		add(graph.Event{Kind: graph.AddNode, Node: id})
		if id%2 == 1 {
			add(graph.Event{Kind: graph.SetNodeAttr, Node: id, Key: "label", Value: "x"})
		}
	}
	link("x")
	for id := graph.NodeID(1); id+1 < graph.NodeID(nodes); id += 2 {
		add(graph.Event{Kind: graph.AddEdge, Node: id, Other: id + 1})
		add(graph.Event{Kind: graph.AddEdge, Node: id, Other: id})
	}
	add(graph.Event{Kind: graph.RemoveNode, Node: hub})
	add(graph.Event{Kind: graph.DelEdgeAttr, Node: 2, Other: 3, Key: "w"})
	link("y")
	for id := graph.NodeID(2); id+1 < graph.NodeID(nodes); id += 3 {
		add(graph.Event{Kind: graph.SetEdgeAttr, Node: id + 1, Other: id, Key: "w", Value: "z"})
		add(graph.Event{Kind: graph.RemoveEdge, Node: id, Other: id})
	}
	add(graph.Event{Kind: graph.RemoveNode, Node: hub})
	add(graph.Event{Kind: graph.AddNode, Node: hub})
	return evs
}

// neighborDegrees is a quantity that reads across partitions: for every
// node, the degree of each neighbour, looked up by id; a neighbour
// missing from the graph counts -1.
func neighborDegrees(g *graph.Graph) float64 {
	sum := 0
	for _, id := range g.NodeIDs() {
		for _, nb := range g.Neighbors(id) {
			if ns := g.Node(nb); ns != nil {
				sum += ns.Degree()
			} else {
				sum--
			}
		}
	}
	return float64(sum)
}

// TestRollSameAtEveryWorkerCount rolls the same SoNs on 1, 2, 3 and 8
// sparklite workers, one replay task per RDD partition, and requires
// every series Evolution and AliveCountSeries report, and every graph
// Graph returns, to be the same at every worker count and equal to the
// induced oracle. Under -race it checks that the partitions' tasks share
// nothing they write: in the hub history a hub with neighbours in every
// partition is removed and re-created, and the removal must not reach
// into another partition's graph.
func TestRollSameAtEveryWorkerCount(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	histories := map[string][]graph.Event{"hub": hubHistory(30)}
	for seed := int64(1); seed <= seeds; seed++ {
		histories[fmt.Sprintf("seed%d", seed)] = genEdgeAttrHistory(seed, 300, 20)
	}
	quantities := map[string]func(*graph.Graph) float64{
		"density":         (*graph.Graph).Density,
		"avgdegree":       (*graph.Graph).AvgDegree,
		"neighbordegrees": neighborDegrees,
	}
	for name, events := range histories {
		for _, p := range []partition.Kind{partition.Random, partition.Locality} {
			tgi := buildPartitionedHandler(t, events, 1, p).tgi
			if name == "hub" {
				requireHubInEveryPartition(t, NewHandler(tgi, sparklite.NewContext(1)))
			}
			// sons[w] holds the SoNs of the handler with w workers.
			sons := map[int]map[string]*SoN{}
			for _, w := range []int{1, 2, 3, 8} {
				h := NewHandler(tgi, sparklite.NewContext(w))
				full, err := SON(h).Fetch()
				if err != nil {
					t.Fatal(err)
				}
				iv := full.Span()
				mid := iv.Start + (iv.End-iv.Start)/2
				sons[w] = map[string]*SoN{
					"whole":     full,
					"timeslice": full.Timeslice(temporal.NewInterval(iv.Start+(iv.End-iv.Start)/3, iv.End)),
					"select":    full.Select(func(nt *NodeT) bool { return nt.ID()%3 != 1 }),
					"attr":      full.SelectAttrAt("label", "x", mid),
				}
			}
			for kind, son := range sons[1] {
				t.Run(fmt.Sprintf("%s/%v/%s", name, p, kind), func(t *testing.T) {
					pts := rollPoints(son)
					want := map[string]Series{}
					for q, f := range quantities {
						want[q] = Evolution(son, f, 0, pts)
					}
					want["alive"] = AliveCountSeries(son, pts)
					for _, pt := range want["alive"] {
						o := inducedOracle(events, son, pt.Time)
						for q, f := range quantities {
							if v := valueAt(want[q], pt.Time); v != f(o) {
								t.Fatalf("1 worker: %s at %d is %v, oracle's %v", q, pt.Time, v, f(o))
							}
						}
						if pt.Value != float64(o.NumNodes()) {
							t.Fatalf("1 worker: alive at %d is %v, oracle has %d nodes", pt.Time, pt.Value, o.NumNodes())
						}
						if g := son.Graph(pt.Time); !g.Equal(o) {
							t.Fatalf("1 worker: Graph(%d) %v, oracle %v", pt.Time, g, o)
						}
					}
					for _, w := range []int{2, 3, 8} {
						other := sons[w][kind]
						for q, f := range quantities {
							if got := Evolution(other, f, 0, pts); !slices.Equal(got, want[q]) {
								t.Fatalf("%d workers: %s %v, 1 worker %v", w, q, got, want[q])
							}
						}
						if got := AliveCountSeries(other, pts); !slices.Equal(got, want["alive"]) {
							t.Fatalf("%d workers: alive %v, 1 worker %v", w, got, want["alive"])
						}
						for _, tt := range pts {
							if g, one := other.Graph(tt), son.Graph(tt); !g.Equal(one) {
								t.Fatalf("%d workers: Graph(%d) %v, 1 worker %v", w, tt, g, one)
							}
						}
					}
				})
			}
		}
	}
}

// valueAt returns the value s holds at tt.
func valueAt(s Series, tt temporal.Time) float64 {
	for _, p := range s {
		if p.Time == tt {
			return p.Value
		}
	}
	return -1
}

// requireHubInEveryPartition fails unless hub node 0 has a neighbour in
// every partition of the whole-span SoN, at some time before its first
// removal, so that the hub history tests what it claims.
func requireHubInEveryPartition(t *testing.T, h *Handler) {
	t.Helper()
	son, err := SON(h).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	byPart := son.RDD().Partitions()
	partOf := map[graph.NodeID]int{}
	for p, nts := range byPart {
		for _, nt := range nts {
			partOf[nt.ID()] = p
		}
	}
	var removed temporal.Time
	for _, nt := range byPart[partOf[0]] {
		if nt.ID() != 0 {
			continue
		}
		for _, e := range nt.Events() {
			if e.Kind == graph.RemoveNode {
				removed = e.Time
				break
			}
		}
	}
	seen := map[int]bool{}
	for _, nb := range son.Graph(removed - 1).Neighbors(0) {
		seen[partOf[nb]] = true
	}
	if len(seen) != len(byPart) || len(byPart) < 2 {
		t.Fatalf("hub has neighbours in %d of %d partitions", len(seen), len(byPart))
	}
}

// BenchmarkEvolution measures Evolution of density at 8 points over a
// generated SoN (fetched once, outside the timer). The SoN spans the
// whole history, so every partition's initial graph is empty: a roll
// that left an empty graph's pair count unknown would recount the view
// at every point, which this benchmark shows as a third more time.
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

// BenchmarkEvolutionTimeslice is BenchmarkEvolution on the shape of the
// taf_evolution workload: the third quarter of a longer history, whose
// members start with non-empty states, rolled on one and on two sparklite
// workers over the same index. (BenchmarkEvolution's whole-history SoN
// starts before the first event, so its initial graphs are empty.)
//
//	go test ./internal/taf -run '^$' -bench EvolutionTimeslice -benchmem
func BenchmarkEvolutionTimeslice(b *testing.B) {
	h := buildHandler(b, genHistory(7, 40000, 8000), 1)
	lo, hi, err := h.tgi.TimeRange()
	if err != nil {
		b.Fatal(err)
	}
	iv := temporal.NewInterval(lo+(hi-lo)/2, lo+3*(hi-lo)/4)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			son, err := SON(NewHandler(h.tgi, sparklite.NewContext(w))).Timeslice(iv).Fetch()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evolutionSink = Evolution(son, (*graph.Graph).Density, 8, nil)
			}
		})
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
