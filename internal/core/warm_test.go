package core

import (
	"testing"

	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/temporal"
	"hgs/internal/workload"
)

// warmIndex builds a preferential-attachment history with edge churn
// among existing nodes into a default-shaped index with 2,000-event
// eventlists.
func warmIndex(tb testing.TB) (*TGI, []graph.Event) {
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
	return tgi, events
}

// warmSnapshot builds warmIndex, picks a time 200 events past a leaf in
// the churn, and takes one snapshot there so every row it reads is
// cache-resident. It returns the index, the time and the answer size.
func warmSnapshot(tb testing.TB) (*TGI, temporal.Time, int) {
	tb.Helper()
	tgi, events := warmIndex(tb)
	l := tgi.cfg.EventlistSize
	tt := events[len(events)*5/6/l*l+200].Time
	g, err := tgi.GetSnapshot(tt, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return tgi, tt, g.NumNodes()
}

// warmSweep builds warmIndex and picks 48 times spread evenly over the
// whole history, several in every leaf, and snapshots each once, so every
// row the sweep reads is cache-resident and every node done by one of
// the times has its end state published. It returns the index, the
// times and the sum of the answers' sizes.
func warmSweep(tb testing.TB) (*TGI, []temporal.Time, int) {
	tb.Helper()
	tgi, events := warmIndex(tb)
	const n = 48
	times := make([]temporal.Time, n)
	nodes := 0
	for i := range times {
		times[i] = events[(2*i+1)*len(events)/(2*n)].Time
		g, err := tgi.GetSnapshot(times[i], nil)
		if err != nil {
			tb.Fatal(err)
		}
		nodes += g.NumNodes()
	}
	return tgi, times, nodes
}

// TestWarmSnapshotAllocsPerNode bounds the allocations of a warm
// snapshot: the path states come out of the cache by pointer, and so do
// the end states of the nodes the boundary eventlist is done with by
// the time, so an answer allocates for its node map and for the states
// of the nodes whose events straddle the time, not for every state of
// the answer. The replay writes only the sides its partitions own, so
// it makes no states for foreign endpoints, and the partitions join in
// one presized union.
func TestWarmSnapshotAllocsPerNode(t *testing.T) {
	tgi, tt, nodes := warmSnapshot(t)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := tgi.GetSnapshot(tt, nil); err != nil {
			t.Fatal(err)
		}
	})
	perNode := allocs / float64(nodes)
	t.Logf("warm snapshot: %.0f allocs for %d nodes (%.2f per node)", allocs, nodes, perNode)
	if perNode > 0.5 {
		t.Fatalf("warm snapshot allocates %.2f times per answer node, want <= 0.5", perNode)
	}
}

// TestWarmSweepAllocsPerNode bounds the allocations of warm snapshots
// spread over the whole history, as the snapshot_warm benchmark workload
// takes them: most nodes a replay touches are done by the time and come
// in by pointer as end states.
func TestWarmSweepAllocsPerNode(t *testing.T) {
	tgi, times, nodes := warmSweep(t)
	allocs := testing.AllocsPerRun(2, func() {
		for _, tt := range times {
			if _, err := tgi.GetSnapshot(tt, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	perNode := allocs / float64(nodes)
	t.Logf("warm sweep: %.0f allocs for %d answer nodes over %d times (%.3f per node)", allocs, nodes, len(times), perNode)
	if perNode > 0.93 {
		t.Fatalf("a warm sweep allocates %.3f times per answer node, want <= 0.93", perNode)
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

// BenchmarkGetSnapshotWarmSweep times warm snapshots cycling through
// times spread over every leaf, each op one snapshot: the shape of the
// snapshot_warm benchmark workload, where end states do most of the
// boundary replay's work.
//
//	go test ./internal/core -run '^$' -bench GetSnapshotWarmSweep -benchmem
func BenchmarkGetSnapshotWarmSweep(b *testing.B) {
	tgi, times, _ := warmSweep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tgi.GetSnapshot(times[i%len(times)], nil); err != nil {
			b.Fatal(err)
		}
	}
}
