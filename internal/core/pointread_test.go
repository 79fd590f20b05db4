package core

import (
	"slices"
	"testing"

	"hgs/internal/codec"
	"hgs/internal/delta"
	"hgs/internal/fetch"
	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/temporal"
	"hgs/internal/workload"
)

// TestNodeFilteredMaterializeMatchesWhole is the differential check of
// point reads: for every micro-partition of every span, at every time on,
// just before and between the change points of its nodes, materializing
// one wanted node (or all of them at once) must give exactly that node's
// state in the whole micro-partition's graph, and nothing for a node
// absent then. The histories hold RemoveNode (expanded by the build),
// node and edge attributes and self-loops.
func TestNodeFilteredMaterializeMatchesWhole(t *testing.T) {
	const idSpace = 40
	events := genHistory(17, 400, idSpace)
	for name, cfg := range configsUnderTest() {
		t.Run(name, func(t *testing.T) {
			tgi := buildSmall(t, cfg, events)
			gm, err := tgi.loadGraphMeta()
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for tsid := 0; tsid < gm.TimespanCount; tsid++ {
				tm, err := tgi.loadTimespanMeta(tsid)
				if err != nil {
					t.Fatal(err)
				}
				// The nodes of each micro-partition, and the times to probe.
				owned := make(map[[2]int][]graph.NodeID)
				for x := graph.NodeID(0); x < idSpace; x++ {
					sid := tgi.sidOf(x)
					pid, err := tgi.pidOf(tm, sid, x)
					if err != nil {
						t.Fatal(err)
					}
					owned[[2]int{sid, pid}] = append(owned[[2]int{sid, pid}], x)
				}
				for key, ids := range owned {
					var times []temporal.Time
					for _, e := range events {
						if e.Time < tm.Start || e.Time > tm.End {
							continue
						}
						if slices.ContainsFunc(ids, e.Touches) {
							times = append(times, e.Time-1, e.Time, e.Time+5)
						}
					}
					times = append(times, tm.Start, tm.End)
					for _, tt := range times {
						leaf := tm.leafFor(tt)
						plan := fetch.NewPlan()
						planMicroPartition(plan, tm, key[0], key[1], leaf)
						res, err := tgi.fx.Exec(plan, 1)
						if err != nil {
							t.Fatal(err)
						}
						mp := microPartitionOf(res, tm, key[0], key[1], leaf)
						whole, err := tgi.assemble(mp, tm, tt, nil)
						if err != nil {
							t.Fatal(err)
						}
						all, err := tgi.assemble(mp, tm, tt, ids)
						if err != nil {
							t.Fatal(err)
						}
						if !all.Equal(whole) {
							t.Fatalf("span %d part %v at %d: all-ids graph %v, whole %v", tsid, key, tt, all, whole)
						}
						for _, id := range ids {
							one, err := tgi.assemble(mp, tm, tt, []graph.NodeID{id})
							if err != nil {
								t.Fatal(err)
							}
							got, want := one.Node(id), whole.Node(id)
							if one.NumNodes() > 1 || (got == nil) != (want == nil) || (got != nil && !got.Equal(want)) {
								t.Fatalf("span %d part %v node %d at %d: filtered %v, whole %v", tsid, key, id, tt, one, want)
							}
							checked++
						}
					}
				}
			}
			if checked < 1000 {
				t.Fatalf("only %d node states checked", checked)
			}
		})
	}
}

// TestNodeFilteredMaterializeTombstones covers what the index build
// never writes but the row format carries: path micro-deltas with
// tombstones. A node installed at the root and deleted at the leaf is
// gone; its neighbor's leaf state (no longer pointing at it) survives;
// boundary events then re-add edges, set edge attributes and add a
// self-loop. Every subset of wanted ids gives the whole graph's states.
func TestNodeFilteredMaterializeTombstones(t *testing.T) {
	const x, n, y, z = graph.NodeID(2), graph.NodeID(5), graph.NodeID(9), graph.NodeID(11)
	root := delta.New()
	xs, ns, ys := graph.NewNodeState(x), graph.NewNodeState(n), graph.NewNodeState(y)
	xs.Edges = map[graph.EdgeKey]*graph.EdgeState{{Other: n, Out: true}: {}}
	ns.Edges = map[graph.EdgeKey]*graph.EdgeState{{Other: x, Out: false}: {}}
	ys.Attrs = graph.Attrs{"label": "a"}
	root.Put(xs)
	root.Put(ns)
	root.Put(ys)
	leafDelta := delta.New()
	leafDelta.Put(graph.NewNodeState(n))
	ys2 := ys.Clone()
	ys2.Attrs["label"] = "b"
	leafDelta.Put(ys2)
	leafDelta.MarkDeleted(x)
	boundary := []graph.Event{
		{Time: 10, Kind: graph.AddEdge, Node: n, Other: y},
		{Time: 20, Kind: graph.SetEdgeAttr, Node: n, Other: y, Key: "w", Value: "3"},
		{Time: 30, Kind: graph.AddEdge, Node: y, Other: y},
		{Time: 40, Kind: graph.SetEdgeAttr, Node: y, Other: y, Key: "w", Value: "1"},
		{Time: 50, Kind: graph.AddNode, Node: z},
		{Time: 60, Kind: graph.RemoveEdge, Node: n, Other: y},
		{Time: 70, Kind: graph.RemoveNode, Node: n},
	}

	store := kvstore.NewCluster(kvstore.Config{Machines: 1, Replication: 1})
	cdc := codec.Codec{}
	pkey := fetch.PlacementKey(0, 0)
	for did, d := range []*delta.Delta{root, leafDelta} {
		blob, err := cdc.EncodeDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		store.Put(TableDeltas, pkey, fetch.DeltaCKey(did, 0), blob)
	}
	blob, err := cdc.EncodeEvents(boundary)
	if err != nil {
		t.Fatal(err)
	}
	store.Put(TableEvents, pkey, fetch.EventCKey(0, 0), blob)
	plan := fetch.NewPlan()
	plan.Part(TableDeltas, 0, 0, 0, 0)
	plan.Part(TableDeltas, 0, 0, 1, 0)
	plan.Part(TableEvents, 0, 0, 0, 0)
	res, err := fetch.NewExecutor(store, cdc, nil).Exec(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	var path []fetch.Part
	for did := 0; did < 2; did++ {
		p, ok := res.Part(TableDeltas, 0, 0, did, 0)
		if !ok {
			t.Fatal("path part missing")
		}
		path = append(path, p)
	}
	ev, _ := res.Part(TableEvents, 0, 0, 0, 0)
	o := owner{sid: 0, sids: 1, npids: 1}
	ids := []graph.NodeID{x, n, y, z}
	for _, tt := range []temporal.Time{0, 10, 25, 35, 45, 55, 65, 75} {
		whole, err := materialize(path, []fetch.Part{ev}, tt, &o, nil)
		if err != nil {
			t.Fatal(err)
		}
		if whole.Has(x) {
			t.Fatalf("at %d the tombstoned node survives: %v", tt, whole)
		}
		for mask := 1; mask < 1<<len(ids); mask++ {
			var want []graph.NodeID
			for i, id := range ids {
				if mask&(1<<i) != 0 {
					want = append(want, id)
				}
			}
			got, err := materialize(path, []fetch.Part{ev}, tt, &o, want)
			if err != nil {
				t.Fatal(err)
			}
			exp := graph.New()
			for _, id := range want {
				if ns := whole.Node(id); ns != nil {
					exp.PutNode(ns)
				}
			}
			if !got.Equal(exp) {
				t.Fatalf("at %d want %v: filtered %v, whole %v", tt, want, got, exp)
			}
		}
	}
}

// coldIndex builds a default-shaped index (500-node micro-partitions)
// over a preferential-attachment history with churn, with the fetch
// cache disabled, so every read decodes its rows from storage.
func coldIndex(tb testing.TB) (*TGI, temporal.Time, int) {
	tb.Helper()
	base := workload.Wikipedia(workload.WikiConfig{Nodes: 3000, EdgesPerNode: 3, Seed: 7})
	events := workload.Augment(base, workload.AugmentConfig{Extra: len(base) / 2, DeleteFraction: 0.3, Seed: 8})
	cfg := DefaultConfig()
	cfg.EventlistSize = 2000
	cfg.CacheBytes = -1
	store := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 1})
	tgi, err := Build(store, cfg, events)
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	return tgi, events[len(events)*5/6].Time, 3000
}

// BenchmarkGetNodeAtCold times a point read with no cache: one
// micro-partition chain read from storage, its row indexes parsed, and
// one node's states decoded and events replayed.
//
//	go test ./internal/core -run '^$' -bench GetNodeAtCold -benchmem
func BenchmarkGetNodeAtCold(b *testing.B) {
	tgi, tt, nodes := coldIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tgi.GetNodeAt(graph.NodeID(i*7919%nodes), tt, nil); err != nil {
			b.Fatal(err)
		}
	}
}
