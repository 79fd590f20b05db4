package core

import (
	"reflect"
	"testing"

	"hgs/internal/graph"
	"hgs/internal/temporal"
)

// TestCacheConformance asserts the decoded-delta cache is invisible to
// query semantics: the same retrievals over the same stored index return
// identical results with the cache enabled (cold and warm passes), with
// a tiny budget that forces constant eviction, and with caching
// disabled — which also pits the batched read path against the same
// plans re-run over fresh handles.
func TestCacheConformance(t *testing.T) {
	events := genHistory(7, 400, 40)
	base := smallConfig()
	built := buildSmall(t, base, events)
	cluster := built.Store()

	cfgOn := base
	cfgOff := base
	cfgOff.CacheBytes = -1
	cfgTiny := base
	cfgTiny.CacheBytes = 2048 // a handful of entries: eviction on every query
	handles := map[string]*TGI{
		"cache-on":   New(cluster, cfgOn),
		"cache-off":  New(cluster, cfgOff),
		"cache-tiny": New(cluster, cfgTiny),
	}

	probes := []temporal.Time{0, 255, 1200, 2405, 4000}
	ids := []graph.NodeID{0, 5, 11, 23, 39}
	lo, hi := events[0].Time, events[len(events)-1].Time+1

	type answers struct {
		snaps     []*graph.Graph
		nodes     []*graph.NodeState
		histories []*NodeHistory
		khops     []*graph.Graph
	}
	collect := func(tgi *TGI) answers {
		var a answers
		for _, tt := range probes {
			g, err := tgi.GetSnapshot(tt, nil)
			if err != nil {
				t.Fatalf("GetSnapshot(%d): %v", tt, err)
			}
			a.snaps = append(a.snaps, g)
		}
		for _, id := range ids {
			ns, err := tgi.GetNodeAt(id, probes[2], nil)
			if err != nil {
				t.Fatalf("GetNodeAt(%d): %v", id, err)
			}
			a.nodes = append(a.nodes, ns)
			h, err := tgi.GetNodeHistory(id, lo, hi, nil)
			if err != nil {
				t.Fatalf("GetNodeHistory(%d): %v", id, err)
			}
			a.histories = append(a.histories, h)
			kg, err := tgi.GetKHopNeighborhood(id, 2, probes[3], nil)
			if err != nil {
				t.Fatalf("GetKHopNeighborhood(%d): %v", id, err)
			}
			a.khops = append(a.khops, kg)
		}
		return a
	}
	same := func(name string, want, got answers) {
		t.Helper()
		for i := range want.snaps {
			if !want.snaps[i].Equal(got.snaps[i]) {
				t.Fatalf("%s: snapshot %d differs", name, i)
			}
		}
		for i := range want.nodes {
			if !nodeStatesEqual(want.nodes[i], got.nodes[i]) {
				t.Fatalf("%s: node state %d differs", name, i)
			}
		}
		for i := range want.histories {
			if !nodeStatesEqual(want.histories[i].Initial, got.histories[i].Initial) ||
				!reflect.DeepEqual(want.histories[i].Events, got.histories[i].Events) {
				t.Fatalf("%s: node history %d differs", name, i)
			}
		}
		for i := range want.khops {
			if !want.khops[i].Equal(got.khops[i]) {
				t.Fatalf("%s: k-hop %d differs", name, i)
			}
		}
	}

	// Reference answers come from the cache-disabled handle.
	want := collect(handles["cache-off"])
	for name, tgi := range handles {
		same(name+"/cold", want, collect(tgi))
		same(name+"/warm", want, collect(tgi)) // cache (where present) now hot
	}

	if hits := handles["cache-on"].CacheStats().Hits; hits == 0 {
		t.Fatal("warm cache-on pass recorded no cache hits")
	}
	if ev := handles["cache-tiny"].CacheStats().Evictions; ev == 0 {
		t.Fatal("tiny cache recorded no evictions")
	}
	if st := handles["cache-off"].CacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("cache-off handle recorded cache traffic: %+v", st)
	}
}

// TestWarmCacheReducesKVOps is the acceptance bar of the fetch-layer
// refactor: with a warm cache, repeated Snapshot and GetNodeAt queries
// issue at least 2× fewer KV operations than the cold pass.
func TestWarmCacheReducesKVOps(t *testing.T) {
	events := genHistory(8, 400, 40)
	built := buildSmall(t, smallConfig(), events)
	cluster := built.Store()
	tgi := New(cluster, smallConfig())

	probes := []temporal.Time{255, 1200, 2405, 4000}
	ids := []graph.NodeID{0, 5, 11, 23, 39}
	pass := func() (reads, roundTrips int64) {
		before := cluster.Metrics()
		for _, tt := range probes {
			if _, err := tgi.GetSnapshot(tt, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			if _, err := tgi.GetNodeAt(id, probes[1], nil); err != nil {
				t.Fatal(err)
			}
		}
		m := cluster.Metrics()
		return m.Reads - before.Reads, m.RoundTrips - before.RoundTrips
	}
	cold, coldTrips := pass()
	warm, warmTrips := pass()
	if cold == 0 {
		t.Fatal("cold pass issued no KV reads")
	}
	// Since eventlist caching, a small fully-resident working set warms
	// to zero KV reads — the strongest possible reduction.
	if cold < 2*warm {
		t.Fatalf("cold pass %d KV reads, warm pass %d: want >= 2x reduction", cold, warm)
	}
	if warmTrips >= coldTrips {
		t.Fatalf("warm pass made %d machine round-trips, not fewer than the cold pass's %d", warmTrips, coldTrips)
	}
	if hits := tgi.CacheStats().EventlistHits; hits == 0 {
		t.Fatalf("warm pass recorded no eventlist cache hits: %+v", tgi.CacheStats())
	}
}
