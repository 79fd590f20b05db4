package bench

import (
	"fmt"
	"time"

	"hgs/internal/core"
	"hgs/internal/fetch"
	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/temporal"
)

// cacheWorkload is the shared cache-experiment query mix: snapshot
// retrievals (delta groups + boundary eventlists), node fetches at a
// populated time (micro-partition point reads), and sparse-history node
// probes at the earliest indexed time — where most path delta rows for
// the probed micro-partitions do not exist, so the absent-row handling
// of the cache is on the measured path.
func cacheWorkload(t *core.TGI, probes []temporal.Time, nodes []graph.NodeID, early temporal.Time) {
	mid := probes[len(probes)/2]
	for _, tt := range probes {
		if _, err := t.GetSnapshot(tt, &core.FetchOptions{Clients: 4}); err != nil {
			panic(fmt.Sprintf("bench: cache snapshot: %v", err))
		}
	}
	for _, id := range nodes {
		if _, err := t.GetNodeAt(id, mid, nil); err != nil {
			panic(fmt.Sprintf("bench: cache node fetch: %v", err))
		}
		if _, err := t.GetNodeAt(id, early, nil); err != nil {
			panic(fmt.Sprintf("bench: cache sparse probe: %v", err))
		}
	}
}

// cacheFixture builds the cache-experiment index and returns the probe
// times and probed node ids.
func cacheFixture(sc Scale) (ix *builtIndex, probes []temporal.Time, nodes []graph.NodeID, early temporal.Time) {
	events := Dataset1(sc)
	ix = buildIndex("fig11", events, 4, 1, nil)
	probes = probeTimes(events, 3)
	early = events[0].Time
	mid := probes[len(probes)/2]
	full, err := ix.TGI.GetSnapshot(mid, nil)
	if err != nil {
		panic(fmt.Sprintf("bench: cache probe snapshot: %v", err))
	}
	ids := full.NodeIDs()
	nodes = make([]graph.NodeID, 0, 64)
	for i := 0; i < 64 && i < len(ids); i++ {
		nodes = append(nodes, ids[len(ids)*i/64])
	}
	return ix, probes, nodes, early
}

// CacheBench — the cache v2 experiment: the same snapshot + node-fetch +
// sparse-probe workload runs cold and warm over a v2 cache handle
// (segmented-LRU admission, negative caching) and over a cache-disabled
// handle, reporting logical KV operations, machine round-trips,
// simulated service time and wall time for each pass. The warm pass
// must answer part of the workload from negative entries (nonzero
// negative-hit ratio) — checked by TestCacheV2NegativeCaching;
// TestCacheBenchSpeedup keeps the original ≥2× cold/warm bar.
func CacheBench(sc Scale) *Result {
	start := time.Now()
	ix, probes, nodes, early := cacheFixture(sc)
	res := &Result{
		ID:    "cache",
		Title: "Decoded-delta cache v2: cold vs warm vs disabled (m=4, c=4)",
	}

	// run meters one pass and appends its structured PassMetrics (KV
	// delta, cache delta with hit/negative ratios, latency quantiles
	// from the per-op histograms) for -json and the perf ratchet.
	run := func(label string, t *core.TGI) (kvstore.Metrics, float64) {
		ix.Cluster.ResetMetrics()
		cacheBefore := t.CacheStats()
		obsBefore := ix.Obs.Snapshot()
		sec := timeIt(func() { cacheWorkload(t, probes, nodes, early) })
		m := ix.Cluster.Metrics()
		cacheAfter := t.CacheStats()
		pm := PassMetrics{
			Label:          label,
			KVReads:        m.Reads,
			RoundTrips:     m.RoundTrips,
			BytesRead:      m.BytesRead,
			SimWaitSeconds: m.SimWait.Seconds(),
			CacheHits:      cacheAfter.Hits - cacheBefore.Hits,
			CacheMisses:    cacheAfter.Misses - cacheBefore.Misses,
			NegativeHits:   cacheAfter.NegativeHits - cacheBefore.NegativeHits,
		}
		if lookups := pm.CacheHits + pm.CacheMisses + pm.NegativeHits; lookups > 0 {
			pm.CacheHitRatio = float64(pm.CacheHits) / float64(lookups)
			pm.NegativeHitRatio = float64(pm.NegativeHits) / float64(lookups)
		}
		if h, ok := ix.Obs.Snapshot().Diff(obsBefore).FamilyHist("hgs_op_duration_seconds"); ok {
			pm.Ops = h.Count
			pm.P50Seconds = h.Quantile(0.50)
			pm.P90Seconds = h.Quantile(0.90)
			pm.P99Seconds = h.Quantile(0.99)
		}
		res.Passes = append(res.Passes, pm)
		return m, sec
	}

	// Fresh handles over the built cluster: the default cache and caching
	// disabled, both with cold metadata.
	cfg := ix.TGI.Config()
	cfg.CacheBytes = 0 // default budget (bench indexes are built cache-off)
	v2TGI := core.New(ix.Cluster, cfg)
	cfgOff := cfg
	cfgOff.CacheBytes = -1
	uncachedTGI := core.New(ix.Cluster, cfgOff)

	ix.Cluster.SetLatency(kvstore.DefaultLatency())
	defer ix.Cluster.SetLatency(kvstore.LatencyModel{})
	coldM, coldSec := run("cold (v2)", v2TGI)
	coldStats := v2TGI.CacheStats()
	warmM, warmSec := run("warm (v2)", v2TGI)
	warmStats := v2TGI.CacheStats()
	offM, offSec := run("cache off", uncachedTGI)

	res.TableHeader = []string{"pass", "kv reads", "round-trips", "read KB", "sim wait", "elapsed"}
	row := func(name string, m kvstore.Metrics, sec float64) []string {
		return []string{
			name,
			fmt.Sprintf("%d", m.Reads),
			fmt.Sprintf("%d", m.RoundTrips),
			fmt.Sprintf("%d", m.BytesRead/1024),
			m.SimWait.Round(time.Millisecond).String(),
			fmt.Sprintf("%.3fs", sec),
		}
	}
	res.TableRows = append(res.TableRows,
		row("cold (v2)", coldM, coldSec),
		row("warm (v2)", warmM, warmSec),
		row("cache off", offM, offSec),
	)
	if warmM.Reads > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("warm v2 pass issues %.1fx fewer kv reads than cold", float64(coldM.Reads)/float64(warmM.Reads)))
	}
	// Eviction quality and negative caching, warm pass only (cold-pass
	// counters subtracted). The ratio is over cache *answers* (positive
	// + negative hits); misses were not answered by the cache.
	negHits := warmStats.NegativeHits - coldStats.NegativeHits
	answers := negHits + (warmStats.Hits - coldStats.Hits)
	if answers > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("warm v2 negative-hit ratio: %.2f (%d of %d cache answers; each one an absent-row KV read not issued)",
			float64(negHits)/float64(answers), negHits, answers))
	}
	res.Notes = append(res.Notes, fmt.Sprintf("warm v2 evictions since cold: %d; protected segment: %d KB of %d KB budget",
		warmStats.Evictions-coldStats.Evictions, warmStats.ProtectedBytes/1024, warmStats.MaxBytes/1024))
	res.Notes = append(res.Notes, "v2 "+warmStats.String())
	res.Elapsed = time.Since(start)
	return res
}

// CachePasses runs the snapshot-only cache workload without the latency
// model and returns the cold and warm pass metrics — the testable core
// of the original cache experiment (used by TestCacheBenchSpeedup).
func CachePasses(sc Scale) (cold, warm kvstore.Metrics) {
	events := Dataset1(sc)
	ix := buildIndex("fig11", events, 4, 1, nil)
	probes := probeTimes(events, 3)
	cfg := ix.TGI.Config()
	cfg.CacheBytes = 0 // default budget (bench indexes are built cache-off)
	t := core.New(ix.Cluster, cfg)
	run := func() kvstore.Metrics {
		ix.Cluster.ResetMetrics()
		for _, tt := range probes {
			if _, err := t.GetSnapshot(tt, &core.FetchOptions{Clients: 4}); err != nil {
				panic(err)
			}
		}
		return ix.Cluster.Metrics()
	}
	cold = run()
	warm = run()
	return cold, warm
}

// CacheV2Passes runs the full cache-v2 workload without the latency
// model and returns the cold and warm pass metrics plus the warm-pass
// cache-counter deltas — the testable core of the v2 experiment (used
// by TestCacheV2NegativeCaching).
func CacheV2Passes(sc Scale) (cold, warm kvstore.Metrics, warmDelta fetch.CacheStats) {
	ix, probes, nodes, early := cacheFixture(sc)
	cfg := ix.TGI.Config()
	cfg.CacheBytes = 0
	t := core.New(ix.Cluster, cfg)

	run := func() kvstore.Metrics {
		ix.Cluster.ResetMetrics()
		cacheWorkload(t, probes, nodes, early)
		return ix.Cluster.Metrics()
	}
	cold = run()
	before := t.CacheStats()
	warm = run()
	after := t.CacheStats()
	warmDelta = fetch.CacheStats{
		Hits:         after.Hits - before.Hits,
		Misses:       after.Misses - before.Misses,
		NegativeHits: after.NegativeHits - before.NegativeHits,
		Evictions:    after.Evictions - before.Evictions,
	}
	return cold, warm, warmDelta
}
