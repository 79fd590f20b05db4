package core

import (
	"testing"

	"hgs/internal/kvstore"
	"hgs/internal/temporal"
	"hgs/internal/workload"
)

// warmSnapshot builds a preferential-attachment history with edge churn
// among existing nodes into a default-shaped index with 2,000-event
// eventlists, picks a time 200 events past a leaf in the churn, and takes
// one snapshot there so every row it reads is cache-resident. It returns
// the index, the time and the answer size.
func warmSnapshot(tb testing.TB) (*TGI, temporal.Time, int) {
	tb.Helper()
	base := workload.Wikipedia(workload.WikiConfig{Nodes: 3000, EdgesPerNode: 3, Seed: 7})
	events := workload.Augment(base, workload.AugmentConfig{Extra: len(base) / 2, DeleteFraction: 0.3, Seed: 8})
	cfg := DefaultConfig()
	cfg.EventlistSize = 2000
	store := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 1})
	tgi, err := Build(store, cfg, events)
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	tt := events[len(events)*5/6/cfg.EventlistSize*cfg.EventlistSize+200].Time
	g, err := tgi.GetSnapshot(tt, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return tgi, tt, g.NumNodes()
}

// TestWarmSnapshotAllocsPerNode bounds the allocations of a warm
// snapshot: the path states come out of the cache by pointer, so an
// answer allocates for its node map and for the states the boundary
// replay writes, not for every state of the answer. The replay writes
// only the sides its partitions own, so it makes no states for foreign
// endpoints, and the partitions join in one presized union.
func TestWarmSnapshotAllocsPerNode(t *testing.T) {
	tgi, tt, nodes := warmSnapshot(t)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := tgi.GetSnapshot(tt, nil); err != nil {
			t.Fatal(err)
		}
	})
	perNode := allocs / float64(nodes)
	t.Logf("warm snapshot: %.0f allocs for %d nodes (%.2f per node)", allocs, nodes, perNode)
	if perNode > 0.7 {
		t.Fatalf("warm snapshot allocates %.2f times per answer node, want <= 0.7", perNode)
	}
}

// BenchmarkGetSnapshotWarm times a snapshot whose rows are all
// cache-resident: materialization and the boundary replay, no storage.
//
//	go test ./internal/core -run '^$' -bench GetSnapshotWarm -benchmem
func BenchmarkGetSnapshotWarm(b *testing.B) {
	tgi, tt, _ := warmSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tgi.GetSnapshot(tt, nil); err != nil {
			b.Fatal(err)
		}
	}
}
