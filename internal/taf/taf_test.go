package taf

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hgs/internal/core"
	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/partition"
	"hgs/internal/sparklite"
	"hgs/internal/temporal"
)

// genHistory mirrors the core test generator (strictly increasing times).
func genHistory(seed int64, n, idSpace int) []graph.Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]graph.Event, 0, n)
	for i := 0; i < n; i++ {
		e := graph.Event{Time: temporal.Time(10 * (i + 1))}
		u := graph.NodeID(rng.Intn(idSpace))
		v := graph.NodeID(rng.Intn(idSpace))
		switch r := rng.Intn(20); {
		case r < 6:
			e.Kind, e.Node = graph.AddNode, u
		case r < 12:
			e.Kind, e.Node, e.Other = graph.AddEdge, u, v
		case r < 14:
			e.Kind, e.Node, e.Other = graph.RemoveEdge, u, v
		case r < 15:
			e.Kind, e.Node = graph.RemoveNode, u
		case r < 18:
			e.Kind, e.Node, e.Key, e.Value = graph.SetNodeAttr, u, "community", []string{"A", "B"}[rng.Intn(2)]
		default:
			e.Kind, e.Node, e.Key, e.Value = graph.SetNodeAttr, u, "other", "x"
		}
		evs = append(evs, e)
	}
	return evs
}

func oracle(events []graph.Event, tt temporal.Time) *graph.Graph {
	g := graph.New()
	for _, e := range events {
		if e.Time > tt {
			break
		}
		g.Apply(e)
	}
	return g
}

var testEvents = genHistory(100, 400, 30)

func newHandler(t *testing.T, workers int) *Handler {
	t.Helper()
	return buildHandler(t, testEvents, workers)
}

// buildHandler indexes events in a small multi-span, multi-partition TGI.
func buildHandler(tb testing.TB, events []graph.Event, workers int) *Handler {
	tb.Helper()
	return buildPartitionedHandler(tb, events, workers, partition.Random)
}

// buildPartitionedHandler is buildHandler with the given
// micro-partitioning.
func buildPartitionedHandler(tb testing.TB, events []graph.Event, workers int, p partition.Kind) *Handler {
	tb.Helper()
	store := kvstore.NewCluster(kvstore.Config{Machines: 2, Replication: 1})
	cfg := core.DefaultConfig()
	cfg.TimespanEvents = 150
	cfg.EventlistSize = 30
	cfg.HorizontalPartitions = 3
	cfg.PartitionSize = 8
	cfg.Partitioning = p
	tgi, err := core.Build(store, cfg, events)
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	return NewHandler(tgi, sparklite.NewContext(workers))
}

func TestSONFetchMatchesOracle(t *testing.T) {
	h := newHandler(t, 4)
	iv := temporal.NewInterval(500, 3000)
	son, err := SON(h).Timeslice(iv).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	for _, nt := range son.Collect() {
		for _, tt := range []temporal.Time{700, 1800, 2900} {
			got := nt.StateAt(tt)
			want := oracle(testEvents, tt).Node(nt.ID())
			if (got == nil) != (want == nil) {
				t.Fatalf("node %d at %d: presence mismatch", nt.ID(), tt)
			}
			if got != nil && !got.Equal(want) {
				t.Fatalf("node %d at %d: state mismatch", nt.ID(), tt)
			}
		}
	}
	// Every node alive at the start must be present.
	alive := oracle(testEvents, iv.Start).NumNodes()
	if son.Count() < alive {
		t.Fatalf("SoN has %d nodes, fewer than %d alive at start", son.Count(), alive)
	}
}

func TestSONSelectAndTimeslice(t *testing.T) {
	h := newHandler(t, 2)
	son, err := SON(h).Select(func(id graph.NodeID) bool { return id < 10 }).
		Timeslice(temporal.NewInterval(500, 3000)).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range son.IDs() {
		if id >= 10 {
			t.Fatalf("Select leaked id %d", id)
		}
	}
	sliced := son.Timeslice(temporal.NewInterval(1000, 2000))
	for _, nt := range sliced.Collect() {
		if nt.StartTime() != 1000 || nt.EndTime() != 2000 {
			t.Fatalf("timeslice bounds wrong: %v", nt.Span())
		}
		want := oracle(testEvents, 1500).Node(nt.ID())
		got := nt.StateAt(1500)
		if (got == nil) != (want == nil) || (got != nil && !got.Equal(want)) {
			t.Fatalf("timesliced node %d state mismatch", nt.ID())
		}
	}
}

func TestSONGraphMatchesSnapshot(t *testing.T) {
	h := newHandler(t, 2)
	son, err := SON(h).Timeslice(temporal.NewInterval(500, 3000)).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	got := son.Graph(2000)
	want := oracle(testEvents, 2000)
	if !got.Equal(want.Subgraph(want.NodeIDs())) {
		t.Fatalf("SoN.Graph(2000) mismatch: %v vs %v", got, want)
	}
}

func TestProjectTrimsAttributes(t *testing.T) {
	h := newHandler(t, 2)
	son, err := SON(h).Timeslice(temporal.NewInterval(0, 4100)).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	proj := son.Project("community")
	for _, nt := range proj.Collect() {
		for _, v := range nt.Versions() {
			for k := range v.State.Attrs {
				if k != "community" {
					t.Fatalf("projection leaked attr %q", k)
				}
			}
		}
	}
}

func TestNodeComputeAndKV(t *testing.T) {
	h := newHandler(t, 3)
	son, err := SON(h).TimesliceAt(2000).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	degs := NodeComputeKV(son, func(nt *NodeT) int {
		ns := nt.StateAt(2000)
		if ns == nil {
			return -1
		}
		return ns.Degree()
	})
	want := oracle(testEvents, 2000)
	for id, d := range degs {
		wantNS := want.Node(id)
		if wantNS == nil {
			continue
		}
		if d != wantNS.Degree() {
			t.Fatalf("degree of %d = %d, want %d", id, d, wantNS.Degree())
		}
	}
}

func TestNodeComputeTemporalMatchesVersions(t *testing.T) {
	h := newHandler(t, 2)
	son, err := SON(h).Timeslice(temporal.NewInterval(500, 2500)).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	series := NodeComputeTemporal(son, func(ns *graph.NodeState) int {
		if ns == nil {
			return -1
		}
		return ns.Degree()
	}, nil)
	for id, samples := range series {
		for _, s := range samples {
			want := oracle(testEvents, s.Time).Node(id)
			wantD := -1
			if want != nil {
				wantD = want.Degree()
			}
			if s.Value != wantD {
				t.Fatalf("node %d degree at %d = %d, want %d", id, s.Time, s.Value, wantD)
			}
		}
	}
}

func TestSOTSPointFetchLCC(t *testing.T) {
	h := newHandler(t, 3)
	sots, err := SOTS(h, 1).TimesliceAt(2000).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(testEvents, 2000)
	if sots.Count() != want.NumNodes() {
		t.Fatalf("SoTS count %d != snapshot nodes %d", sots.Count(), want.NumNodes())
	}
	lccs := SubgraphComputeKV(sots, func(st *SubgraphT) float64 {
		return st.StateAt(2000).LocalClusteringCoefficient(st.Root())
	})
	for id, got := range lccs {
		if wantLCC := want.LocalClusteringCoefficient(id); math.Abs(got-wantLCC) > 1e-12 {
			t.Fatalf("LCC of %d = %v, want %v", id, got, wantLCC)
		}
	}
}

func TestSOTSIntervalFetch(t *testing.T) {
	h := newHandler(t, 3)
	roots := []graph.NodeID{1, 5, 9}
	sots, err := SOTS(h, 1).Roots(roots...).Timeslice(temporal.NewInterval(800, 2600)).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sots.Collect() {
		for _, tt := range []temporal.Time{1000, 2000} {
			got := st.StateAt(tt)
			want := oracle(testEvents, tt).Subgraph(st.Members())
			if !got.Equal(want) {
				t.Fatalf("subgraph %d at %d mismatch", st.Root(), tt)
			}
		}
	}
}

func TestTemporalVsDeltaAgree(t *testing.T) {
	// The paper's Figure 8 example: count members with a given label —
	// fresh per-version evaluation and incremental evaluation must agree.
	h := newHandler(t, 3)
	sots, err := SOTS(h, 1).Roots(2, 7, 11).Timeslice(temporal.NewInterval(500, 3500)).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	countLabel := func(g *graph.Graph) int { return g.AttrCount("community", "A") }
	fresh := SubgraphComputeTemporal(sots, countLabel, nil)
	incr := SubgraphComputeDelta(sots,
		func(g *graph.Graph) (int, any) { return countLabel(g), nil },
		func(before *graph.Graph, aux any, val int, e graph.Event) (int, any) {
			switch e.Kind {
			case graph.SetNodeAttr:
				if e.Key != "community" {
					return val, aux
				}
				ns := before.Node(e.Node)
				was := ns != nil && ns.Attrs["community"] == "A"
				is := e.Value == "A"
				// A SetNodeAttr can create the node; count transitions.
				if was && !is {
					return val - 1, aux
				}
				if !was && is {
					return val + 1, aux
				}
			case graph.DelNodeAttr:
				if e.Key == "community" {
					if ns := before.Node(e.Node); ns != nil && ns.Attrs["community"] == "A" {
						return val - 1, aux
					}
				}
			case graph.RemoveNode:
				if ns := before.Node(e.Node); ns != nil && ns.Attrs["community"] == "A" {
					return val - 1, aux
				}
			}
			return val, aux
		})
	for id, fs := range fresh {
		is := incr[id]
		if len(fs) != len(is) {
			t.Fatalf("root %d: %d fresh samples vs %d incremental", id, len(fs), len(is))
		}
		for i := range fs {
			if fs[i].Time != is[i].Time || fs[i].Value != is[i].Value {
				t.Fatalf("root %d sample %d: fresh (%d,%d) vs incr (%d,%d)",
					id, i, fs[i].Time, fs[i].Value, is[i].Time, is[i].Value)
			}
		}
	}
}

func TestCompareOperator(t *testing.T) {
	h := newHandler(t, 2)
	iv := temporal.NewInterval(500, 3000)
	base, err := SON(h).Timeslice(iv).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	sonA := base.SelectAttrAt("community", "A", 2500)
	sonB := base.SelectAttrAt("community", "B", 2500)
	deg := func(nt *NodeT) float64 {
		ns := nt.StateAt(2500)
		if ns == nil {
			return 0
		}
		return float64(ns.Degree())
	}
	rows := Compare(sonA, sonB, deg)
	want := oracle(testEvents, 2500)
	for _, r := range rows {
		if r.Diff != r.A-r.B {
			t.Fatalf("diff arithmetic wrong: %+v", r)
		}
		ns := want.Node(r.ID)
		if ns == nil {
			continue
		}
		community := ns.Attrs["community"]
		switch community {
		case "A":
			if r.A != float64(ns.Degree()) {
				t.Fatalf("node %d in A: value %v, want %d", r.ID, r.A, ns.Degree())
			}
		case "B":
			if r.B != float64(ns.Degree()) {
				t.Fatalf("node %d in B: value %v, want %d", r.ID, r.B, ns.Degree())
			}
		}
	}
}

func TestCompareAt(t *testing.T) {
	h := newHandler(t, 2)
	son, err := SON(h).Timeslice(temporal.NewInterval(500, 4000)).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	rows := CompareAt(son, func(ns *graph.NodeState) float64 { return float64(ns.Degree()) }, 1000, 3500)
	g1 := oracle(testEvents, 1000)
	g2 := oracle(testEvents, 3500)
	for _, r := range rows {
		var want float64
		if ns := g1.Node(r.ID); ns != nil {
			want = float64(ns.Degree())
		}
		if r.A != want {
			t.Fatalf("node %d A-side = %v, want %v", r.ID, r.A, want)
		}
		var wantB float64
		if ns := g2.Node(r.ID); ns != nil {
			wantB = float64(ns.Degree())
		}
		if r.B != wantB {
			t.Fatalf("node %d B-side = %v, want %v", r.ID, r.B, wantB)
		}
	}
}

func TestEvolutionDensity(t *testing.T) {
	h := newHandler(t, 2)
	iv := temporal.NewInterval(100, 4000)
	son, err := SON(h).Timeslice(iv).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	series := Evolution(son, (*graph.Graph).Density, 5, nil)
	if len(series) != 5 {
		t.Fatalf("evolution returned %d points", len(series))
	}
	for _, s := range series {
		want := oracle(testEvents, s.Time)
		if math.Abs(s.Value-want.Density()) > 1e-12 {
			t.Fatalf("density at %d = %v, want %v", s.Time, s.Value, want.Density())
		}
	}
}

func TestAliveCountSeries(t *testing.T) {
	h := newHandler(t, 2)
	iv := temporal.NewInterval(100, 4000)
	son, err := SON(h).Timeslice(iv).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	pts := EvenTimepoints(iv, 4)
	series := AliveCountSeries(son, pts)
	for _, s := range series {
		if int(s.Value) != oracle(testEvents, s.Time).NumNodes() {
			t.Fatalf("alive count at %d = %v, want %d", s.Time, s.Value, oracle(testEvents, s.Time).NumNodes())
		}
	}
}

func TestSeriesAggregations(t *testing.T) {
	s := Series{
		{Time: 1, Value: 1}, {Time: 2, Value: 5}, {Time: 3, Value: 2},
		{Time: 4, Value: 7}, {Time: 5, Value: 7}, {Time: 6, Value: 3}, {Time: 7, Value: 3},
	}
	if m, _ := s.Max(); m.Time != 4 || m.Value != 7 {
		t.Fatalf("Max = %+v", m)
	}
	if m, _ := s.Min(); m.Time != 1 || m.Value != 1 {
		t.Fatalf("Min = %+v", m)
	}
	if mean := s.Mean(); math.Abs(mean-(1+5+2+7+7+3+3)/7.0) > 1e-12 {
		t.Fatalf("Mean = %v", mean)
	}
	peaks := s.Peaks()
	if len(peaks) != 2 || peaks[0].Time != 2 || peaks[1].Time != 4 {
		t.Fatalf("Peaks = %+v", peaks)
	}
	if sat, ok := s.Saturate(0); !ok || sat != 6 {
		t.Fatalf("Saturate = %v, %v", sat, ok)
	}
	var empty Series
	if _, ok := empty.Max(); ok {
		t.Fatal("empty Max should be !ok")
	}
	if _, ok := empty.Saturate(1); ok {
		t.Fatal("empty Saturate should be !ok")
	}
}

func TestEvenTimepoints(t *testing.T) {
	pts := EvenTimepoints(temporal.NewInterval(0, 101), 5)
	if len(pts) != 5 || pts[0] != 0 || pts[4] != 100 {
		t.Fatalf("EvenTimepoints = %v", pts)
	}
	if got := EvenTimepoints(temporal.NewInterval(5, 50), 1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("single point = %v", got)
	}
	// Every point lies in [Start, max(Start, End-1)], also for the empty
	// interval a non-overlapping Timeslice leaves.
	for _, iv := range []temporal.Interval{
		{Start: 100, End: 100}, {Start: 100, End: 101}, {Start: 100, End: 102},
		{Start: 100, End: 107}, {Start: 0, End: 1000},
	} {
		hi := max(iv.Start, iv.End-1)
		for n := 0; n <= 10; n++ {
			for _, p := range EvenTimepoints(iv, n) {
				if p < iv.Start || p > hi {
					t.Fatalf("EvenTimepoints(%v, %d) = %v: %d outside [%d, %d]", iv, n, EvenTimepoints(iv, n), p, iv.Start, hi)
				}
			}
		}
	}
}

func TestIteratorWalksVersions(t *testing.T) {
	h := newHandler(t, 2)
	son, err := SON(h).Timeslice(temporal.NewInterval(0, 4100)).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	for _, nt := range son.Collect() {
		it := nt.Iterator()
		n := 0
		var prevEnd temporal.Time = -1 << 60
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			if v.Valid.Start < prevEnd {
				t.Fatalf("node %d: versions overlap", nt.ID())
			}
			prevEnd = v.Valid.End
			n++
		}
		if n != len(nt.Versions()) {
			t.Fatalf("iterator count mismatch")
		}
		if n > 0 {
			break // one non-trivial node is enough
		}
	}
}

func TestWorkerScalingProducesSameResults(t *testing.T) {
	results := make([]map[graph.NodeID]float64, 0, 3)
	for _, w := range []int{1, 2, 4} {
		h := newHandler(t, w)
		sots, err := SOTS(h, 1).TimesliceAt(2000).Fetch()
		if err != nil {
			t.Fatal(err)
		}
		lcc := SubgraphComputeKV(sots, func(st *SubgraphT) float64 {
			return st.StateAt(2000).LocalClusteringCoefficient(st.Root())
		})
		results = append(results, lcc)
	}
	for i := 1; i < len(results); i++ {
		if len(results[i]) != len(results[0]) {
			t.Fatalf("worker count changed result size")
		}
		for id, v := range results[0] {
			if results[i][id] != v {
				t.Fatalf("worker count changed LCC of node %d", id)
			}
		}
	}
}

func TestTimepointSelectorMinimal(t *testing.T) {
	// Paper Figure 9a: evaluate at the start, middle and end of the span
	// instead of every change point.
	h := newHandler(t, 2)
	son, err := SON(h).Timeslice(temporal.NewInterval(500, 2500)).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	minimal := func(nt *NodeT) []temporal.Time {
		st, et := nt.StartTime(), nt.EndTime()
		return []temporal.Time{st, (st + et) / 2, et - 1}
	}
	series := NodeComputeTemporal(son, func(ns *graph.NodeState) int {
		if ns == nil {
			return -1
		}
		return ns.Degree()
	}, minimal)
	for id, samples := range series {
		if len(samples) != 3 {
			t.Fatalf("node %d evaluated at %d points, want 3", id, len(samples))
		}
		if samples[0].Time != 500 || samples[2].Time != 2499 {
			t.Fatalf("node %d sampled at wrong times: %+v", id, samples)
		}
	}
}

func TestTimepointSelectorAllChangePoints(t *testing.T) {
	// Paper Figure 9b: compare two SoNs at the union of their change
	// points.
	h := newHandler(t, 2)
	iv := temporal.NewInterval(500, 2500)
	son, err := SON(h).Timeslice(iv).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	sonA := son.Select(func(nt *NodeT) bool { return nt.ID()%2 == 0 })
	sonB := son.Select(func(nt *NodeT) bool { return nt.ID()%2 == 1 })
	pts := append(sonA.ChangePoints(), sonB.ChangePoints()...)
	countsA := AliveCountSeries(sonA, pts)
	countsB := AliveCountSeries(sonB, pts)
	if len(countsA) != len(pts) || len(countsB) != len(pts) {
		t.Fatal("sampling did not cover all requested points")
	}
	for i := range countsA {
		wantA, wantB := 0, 0
		g := oracle(testEvents, countsA[i].Time)
		for _, id := range g.NodeIDs() {
			if id%2 == 0 {
				wantA++
			} else {
				wantB++
			}
		}
		if int(countsA[i].Value) != wantA || int(countsB[i].Value) != wantB {
			t.Fatalf("at %d: counts (%v,%v) want (%d,%d)",
				countsA[i].Time, countsA[i].Value, countsB[i].Value, wantA, wantB)
		}
	}
}

func TestSOTSSelectPredicate(t *testing.T) {
	h := newHandler(t, 2)
	sots, err := SOTS(h, 1).Select(func(id graph.NodeID) bool { return id < 8 }).TimesliceAt(2000).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range sots.Roots() {
		if root >= 8 {
			t.Fatalf("predicate leaked root %d", root)
		}
	}
	filtered := sots.Select(func(st *SubgraphT) bool { return st.StateAt(2000).NumNodes() > 1 })
	for _, st := range filtered.Collect() {
		if st.StateAt(2000).NumNodes() <= 1 {
			t.Fatal("SoTS.Select did not filter")
		}
	}
}

func TestNewSoTSFromHistories(t *testing.T) {
	h := newHandler(t, 2)
	span := temporal.NewInterval(100, 200)
	g := graph.New()
	g.AddEdge(1, 2)
	hs := []*core.SubgraphHistory{{
		Root: 1, K: 1, Interval: span, Initial: g, Members: []graph.NodeID{1, 2},
		Events: []graph.Event{{Time: 150, Kind: graph.AddEdge, Node: 2, Other: 1}},
	}}
	sots := NewSoTSFromHistories(h, 1, span, hs)
	if sots.Count() != 1 {
		t.Fatal("wrapped SoTS lost members")
	}
	if got := sots.Collect()[0].ChangePoints(); len(got) != 1 || got[0] != 150 {
		t.Fatalf("change points wrong: %v", got)
	}
}

func TestTemporalVsDeltaAgreeOnEdgeQuantity(t *testing.T) {
	// Edge-sensitive quantity (edge count of the induced subgraph): the
	// incremental path must track the member-induced view exactly, even
	// when events reference nodes outside the member set.
	h := newHandler(t, 2)
	sots, err := SOTS(h, 1).Roots(1, 4, 8, 13).Timeslice(temporal.NewInterval(500, 3500)).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	edges := func(g *graph.Graph) int { return g.NumEdges() }
	fresh := SubgraphComputeTemporal(sots, edges, nil)
	incr := SubgraphComputeDelta(sots,
		func(g *graph.Graph) (int, any) { return edges(g), nil },
		func(before *graph.Graph, aux any, val int, e graph.Event) (int, any) {
			switch e.Kind {
			case graph.AddEdge:
				if !before.HasEdge(e.Node, e.Other) {
					return val + 1, aux
				}
			case graph.RemoveEdge:
				if before.HasEdge(e.Node, e.Other) {
					return val - 1, aux
				}
			case graph.RemoveNode:
				if ns := before.Node(e.Node); ns != nil {
					return val - ns.OutDegree() - ns.InDegree(), aux
				}
			}
			return val, aux
		})
	for id, fs := range fresh {
		is := incr[id]
		if len(fs) != len(is) {
			t.Fatalf("root %d: %d vs %d samples", id, len(fs), len(is))
		}
		for i := range fs {
			if fs[i] != is[i] {
				t.Fatalf("root %d sample %d: fresh (%d,%d) vs incr (%d,%d)",
					id, i, fs[i].Time, fs[i].Value, is[i].Time, is[i].Value)
			}
		}
	}
}

// TestSONFetchSharesDeltaCache asserts the analytics fetch path rides
// the unified fetch layer: a repeated SoN fetch over the same timeslice
// serves its root-path deltas from the decoded-delta cache, issuing
// fewer KV reads than the cold fetch and recording cache hits.
func TestSONFetchSharesDeltaCache(t *testing.T) {
	h := newHandler(t, 3)
	cluster := h.tgi.Store()
	iv := temporal.NewInterval(500, 3000)
	fetchOnce := func() (*SoN, int64) {
		before := cluster.Metrics().Reads
		son, err := SON(h).Timeslice(iv).Fetch()
		if err != nil {
			t.Fatal(err)
		}
		return son, cluster.Metrics().Reads - before
	}
	cold, coldReads := fetchOnce()
	warm, warmReads := fetchOnce()
	if warmReads >= coldReads {
		t.Fatalf("warm SoN fetch reads (%d) not below cold (%d)", warmReads, coldReads)
	}
	if hits := h.tgi.CacheStats().Hits; hits == 0 {
		t.Fatal("SoN refetch recorded no delta-cache hits")
	}
	a, b := cold.Collect(), warm.Collect()
	if len(a) != len(b) {
		t.Fatalf("warm SoN has %d nodes, cold %d", len(b), len(a))
	}
	for i := range a {
		if a[i].ID() != b[i].ID() {
			t.Fatalf("node order differs at %d", i)
		}
		for _, tt := range []temporal.Time{700, 1800, 2900} {
			x, y := a[i].StateAt(tt), b[i].StateAt(tt)
			if (x == nil) != (y == nil) || (x != nil && !x.Equal(y)) {
				t.Fatalf("node %d at %d: warm fetch state differs", a[i].ID(), tt)
			}
		}
	}
}

// graphSummary renders a graph's nodes, attributes, edges and edge
// attributes as one comparable string.
func graphSummary(g *graph.Graph) string {
	var b strings.Builder
	for _, id := range g.NodeIDs() {
		ns := g.Node(id)
		edges := make(map[graph.EdgeKey]graph.Attrs, len(ns.Edges))
		for k, es := range ns.Edges {
			edges[k] = es.Attrs
		}
		fmt.Fprint(&b, id, ns.Attrs, edges, ";")
	}
	return b.String()
}

// TestSubgraphComputeDeltaMatchesTemporal folds every event into the
// value by applying it to a copy of the before-state and summarizing the
// result afresh, so the incremental series equals the temporal one only
// if the running state SubgraphComputeDelta keeps equals StateAt at
// every change point. The first history re-creates a removed member
// through an edge to a non-member.
func TestSubgraphComputeDeltaMatchesTemporal(t *testing.T) {
	type setup struct {
		events []graph.Event
		roots  []graph.NodeID
		iv     temporal.Interval
	}
	setups := map[string]setup{"recreate": {
		events: []graph.Event{
			{Time: 10, Kind: graph.AddNode, Node: 1},
			{Time: 20, Kind: graph.AddNode, Node: 2},
			{Time: 30, Kind: graph.AddEdge, Node: 1, Other: 2},
			{Time: 40, Kind: graph.RemoveNode, Node: 1},
			{Time: 50, Kind: graph.AddEdge, Node: 1, Other: 3},
		},
		roots: []graph.NodeID{2},
		iv:    temporal.NewInterval(35, 100),
	}}
	for seed := int64(1); seed <= 30; seed++ {
		setups[fmt.Sprintf("seed%d", seed)] = setup{
			events: genEdgeAttrHistory(seed, 300, 20),
			roots:  []graph.NodeID{1, 4, 8, 13, 17},
			iv:     temporal.NewInterval(600, 2700),
		}
	}
	recount := func(before *graph.Graph, aux any, _ string, e graph.Event) (string, any) {
		after := before.Clone()
		if err := after.Apply(e); err != nil {
			t.Fatal(err)
		}
		return graphSummary(after), aux
	}
	for name, su := range setups {
		t.Run(name, func(t *testing.T) {
			sots, err := SOTS(buildHandler(t, su.events, 2), 1).Roots(su.roots...).Timeslice(su.iv).Fetch()
			if err != nil {
				t.Fatal(err)
			}
			fresh := SubgraphComputeTemporal(sots, graphSummary, nil)
			incr := SubgraphComputeDelta(sots, func(g *graph.Graph) (string, any) { return graphSummary(g), nil }, recount)
			if len(fresh) != len(su.roots) {
				t.Fatalf("%d series for %d roots", len(fresh), len(su.roots))
			}
			for id, fs := range fresh {
				is := incr[id]
				if len(fs) != len(is) {
					t.Fatalf("root %d: %d fresh samples vs %d incremental", id, len(fs), len(is))
				}
				for i := range fs {
					if fs[i] != is[i] {
						t.Fatalf("root %d at %d: fresh %q, incremental %q", id, fs[i].Time, fs[i].Value, is[i].Value)
					}
				}
			}
		})
	}
}
