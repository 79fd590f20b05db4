package core

import (
	"fmt"
	"testing"

	"hgs/internal/backend/disklog"
	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/temporal"
	"hgs/internal/workload"
)

// kHopIndex builds warmIndex's history and returns the index, a time in
// the churn and 64 node ids spread over the id space. A cold index sits
// on the disk engine behind a 16 KiB fetch cache, an eighth of the rows
// that reads at one time touch, so most of a k-hop read's rows come from
// storage; a warm one sits on the memory engine with the default cache,
// and every id's k-hop reads at k = 1 and 2 have run once, so its rows
// are cache-resident.
func kHopIndex(tb testing.TB, cold bool) (*TGI, temporal.Time, []graph.NodeID) {
	tb.Helper()
	base := workload.Wikipedia(workload.WikiConfig{Nodes: 3000, EdgesPerNode: 3, Seed: 7})
	events := workload.Augment(base, workload.AugmentConfig{Extra: len(base) / 2, DeleteFraction: 0.3, Seed: 8})
	cfg := DefaultConfig()
	cfg.EventlistSize = 2000
	kc := kvstore.Config{Machines: 3, Replication: 1}
	if cold {
		cfg.CacheBytes = 16 << 10
		kc.Backend = disklog.Factory(tb.TempDir(), disklog.Options{})
	}
	store, err := kvstore.Open(kc)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { store.Close() })
	tgi, err := Build(store, cfg, events)
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	tt := events[len(events)*5/6].Time
	ids := make([]graph.NodeID, 64)
	for i := range ids {
		ids[i] = graph.NodeID(i * 7919 % 3000)
	}
	if !cold {
		for _, id := range ids {
			for k := 1; k <= 2; k++ {
				if _, err := tgi.GetKHopNeighborhood(id, k, tt, nil); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return tgi, tt, ids
}

// benchKHop times GetKHopNeighborhood at k = 1 and 2, cycling through
// kHopIndex's ids.
func benchKHop(b *testing.B, cold bool) {
	tgi, tt, ids := kHopIndex(b, cold)
	for k := 1; k <= 2; k++ {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tgi.GetKHopNeighborhood(ids[i%len(ids)], k, tt, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKHopCold times a k-hop read whose rows mostly come from the
// disk engine: per hop one batched plan, then each micro-partition's
// wanted states decoded and events replayed, and the answer induced.
//
//	go test ./internal/core -run '^$' -bench KHopCold -benchmem
func BenchmarkKHopCold(b *testing.B) { benchKHop(b, true) }

// BenchmarkKHopWarm times a k-hop read whose rows are all
// cache-resident: the answer is built from frozen cache states.
//
//	go test ./internal/core -run '^$' -bench KHopWarm -benchmem
func BenchmarkKHopWarm(b *testing.B) { benchKHop(b, false) }

// TestKHopAnswerSharesStates checks that k-hop answers share frozen
// states: two warm answers at a leaf's time, where no boundary event
// replays, hold each interior member (every neighbor a member) by the
// same pointer. Writing one answer through every mutator, SetEdgeAttr on
// a shared edge of the root and RemoveNode of the root among them, must
// leave the other answer and a third fresh one equal to the oracle's
// KHopSubgraph.
func TestKHopAnswerSharesStates(t *testing.T) {
	events := genHistory(6, 400, 30)
	for name, cfg := range configsUnderTest() {
		t.Run(name, func(t *testing.T) {
			tgi := buildSmall(t, cfg, events)
			tm, err := tgi.timespanFor(2000)
			if err != nil {
				t.Fatal(err)
			}
			tt := tm.LeafTimes[len(tm.LeafTimes)/2]
			full := oracle(events, tt)
			root := full.NodeIDs()[0]
			for _, id := range full.NodeIDs() {
				if full.Node(id).Degree() > full.Node(root).Degree() {
					root = id
				}
			}
			for k := 1; k <= 2; k++ {
				want := full.KHopSubgraph(root, k)
				get := func() *graph.Graph {
					g, err := tgi.GetKHopNeighborhood(root, k, tt, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !g.Equal(want) {
						t.Fatalf("k=%d: answer %v, oracle %v", k, g, want)
					}
					return g
				}
				a, b := get(), get()
				var interior []graph.NodeID
				for _, id := range want.NodeIDs() {
					if len(full.Node(id).Edges) == len(want.Node(id).Edges) {
						interior = append(interior, id)
						if a.Node(id) != b.Node(id) {
							t.Fatalf("k=%d: interior member %d is not shared by two answers", k, id)
						}
					}
				}
				if len(interior) == 0 {
					t.Fatalf("k=%d: no interior member", k)
				}
				nb := want.Neighbors(root)[0]
				mutated := want.Clone()
				for _, g := range []*graph.Graph{a, mutated} {
					for _, e := range []graph.Event{
						{Kind: graph.SetEdgeAttr, Node: root, Other: nb, Key: "w", Value: "mut"},
						{Kind: graph.DelEdgeAttr, Node: nb, Other: root, Key: "w"},
						{Kind: graph.SetEdgeAttr, Node: nb, Other: root, Key: "v", Value: "mut"},
						{Kind: graph.SetNodeAttr, Node: nb, Key: "label", Value: "mut"},
						{Kind: graph.DelNodeAttr, Node: interior[len(interior)-1], Key: "label"},
						{Kind: graph.AddEdge, Node: nb, Other: 999},
						{Kind: graph.RemoveEdge, Node: interior[len(interior)-1], Other: root},
					} {
						if err := g.Apply(e); err != nil {
							t.Fatal(err)
						}
					}
					if err := g.ApplySide(graph.Event{Kind: graph.SetEdgeAttr, Node: root, Other: nb, Key: "s", Value: "mut"}, root); err != nil {
						t.Fatal(err)
					}
					g.AddNode(nb).Attrs["direct"] = "mut"
					g.Symmetrize()
					g.RemoveNode(root)
				}
				if !a.Equal(mutated) {
					t.Fatalf("k=%d: the written answer differs from the written oracle", k)
				}
				if !b.Equal(want) {
					t.Fatalf("k=%d: writing one answer changed another", k)
				}
				get()
			}
		})
	}
}
