package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"hgs/internal/baseline"
	"hgs/internal/core"
	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/partition"
	"hgs/internal/sparklite"
	"hgs/internal/taf"
	"hgs/internal/temporal"
	"hgs/internal/workload"
)

// spark returns a compute context with w workers.
func spark(w int) *sparklite.Context { return sparklite.NewContext(w) }

// Fig11 — snapshot retrieval time vs snapshot size for parallel fetch
// factors c ∈ {1,2,4,8,16,32}; m=4, r=1, ps=500 (Dataset 1).
func Fig11(sc Scale) *Result {
	start := time.Now()
	events := Dataset1(sc)
	ix := buildIndex("fig11", events, 4, 1, nil)
	probes := probeTimes(events, 4)
	res := &Result{
		ID: "fig11", Title: "Snapshot retrieval vs parallel fetch factor (m=4, r=1, ps=500)",
		XLabel: "snapshot size (node count)", YLabel: "retrieval time (s)",
	}
	ix.metered(res, "c sweep", func() {
		for _, c := range []int{1, 2, 4, 8, 16, 32} {
			s := Series{Name: fmt.Sprintf("c=%d", c)}
			for _, tt := range probes {
				var g *graph.Graph
				p := timeFetch(c, func(o *core.FetchOptions) { g, _ = ix.TGI.GetSnapshot(tt, o) })
				p.X = float64(g.NumNodes())
				s.Points = append(s.Points, p)
			}
			res.Series = append(res.Series, s)
		}
	})
	res.Elapsed = time.Since(start)
	return res
}

// Fig12 — snapshot retrieval across cluster shapes (m=1,r=1), (m=2,r=1),
// (m=2,r=2) for varying c (Dataset 1).
func Fig12(sc Scale) *Result {
	start := time.Now()
	events := Dataset1(sc)
	res := &Result{
		ID: "fig12", Title: "Snapshot retrieval across m and r",
		XLabel: "snapshot size (node count)", YLabel: "retrieval time (s)",
	}
	probesAll := probeTimes(events, 3)
	shapes := []struct {
		m, r int
		cs   []int
	}{
		{1, 1, []int{1, 2, 4, 8}},
		{2, 1, []int{1, 2, 4, 8}},
		{2, 2, []int{1, 4, 8, 16}},
	}
	for _, sh := range shapes {
		ix := buildIndex(fmt.Sprintf("fig12/m%dr%d", sh.m, sh.r), events, sh.m, sh.r, nil)
		ix.metered(res, fmt.Sprintf("m=%d,r=%d", sh.m, sh.r), func() {
			for _, c := range sh.cs {
				s := Series{Name: fmt.Sprintf("m=%d,r=%d,c=%d", sh.m, sh.r, c)}
				for _, tt := range probesAll {
					var g *graph.Graph
					p := timeFetch(c, func(o *core.FetchOptions) { g, _ = ix.TGI.GetSnapshot(tt, o) })
					p.X = float64(g.NumNodes())
					s.Points = append(s.Points, p)
				}
				res.Series = append(res.Series, s)
			}
		})
	}
	res.Elapsed = time.Since(start)
	return res
}

// Fig13a — compressed vs uncompressed delta storage (m=2, c=8).
func Fig13a(sc Scale) *Result {
	start := time.Now()
	events := Dataset1(sc)
	res := &Result{
		ID: "fig13a", Title: "Compressed vs uncompressed delta storage (m=2, c=8)",
		XLabel: "snapshot size (node count)", YLabel: "retrieval time (s)",
	}
	probes := probeTimes(events, 4)
	for _, compress := range []bool{false, true} {
		name := "uncompressed"
		if compress {
			name = "compressed"
		}
		ix := buildIndex("fig13a/"+name, events, 2, 1, func(cfg *core.Config) { cfg.Compress = compress })
		s := Series{Name: name}
		ix.metered(res, name, func() {
			for _, tt := range probes {
				var g *graph.Graph
				p := timeFetch(8, func(o *core.FetchOptions) { g, _ = ix.TGI.GetSnapshot(tt, o) })
				p.X = float64(g.NumNodes())
				s.Points = append(s.Points, p)
			}
		})
		st, _ := ix.TGI.Stats()
		res.Notes = append(res.Notes, fmt.Sprintf("%s stored bytes: %d", name, st.LogicalBytes))
		res.Series = append(res.Series, s)
	}
	res.Elapsed = time.Since(start)
	return res
}

// Fig13b — effect of micro-delta partition size on snapshots (m=4, c=8).
func Fig13b(sc Scale) *Result {
	start := time.Now()
	events := Dataset1(sc)
	res := &Result{
		ID: "fig13b", Title: "Effect of partition size on snapshot retrieval (m=4, c=8)",
		XLabel: "snapshot size (node count)", YLabel: "retrieval time (s)",
	}
	probes := probeTimes(events, 4)
	for _, ps := range []int{1000, 2000, 4000} {
		ix := buildIndex(fmt.Sprintf("fig13b/ps%d", ps), events, 4, 1, func(cfg *core.Config) { cfg.PartitionSize = ps })
		s := Series{Name: fmt.Sprintf("ps=%d", ps)}
		ix.metered(res, fmt.Sprintf("ps=%d", ps), func() {
			for _, tt := range probes {
				var g *graph.Graph
				p := timeFetch(8, func(o *core.FetchOptions) { g, _ = ix.TGI.GetSnapshot(tt, o) })
				p.X = float64(g.NumNodes())
				s.Points = append(s.Points, p)
			}
		})
		res.Series = append(res.Series, s)
	}
	res.Elapsed = time.Since(start)
	return res
}

// Fig13c — Friendster snapshot retrieval (m=6, r=1, c=1, ps=500).
func Fig13c(sc Scale) *Result {
	start := time.Now()
	events := Dataset4(sc)
	ix := buildIndex("fig13c", events, 6, 1, nil)
	res := &Result{
		ID: "fig13c", Title: "Snapshot retrieval, Friendster (m=6, r=1, c=1, ps=500)",
		XLabel: "snapshot size (node count)", YLabel: "retrieval time (s)",
	}
	s := Series{Name: "Friendster"}
	ix.metered(res, "friendster", func() {
		for _, tt := range probeTimes(events, 5) {
			var g *graph.Graph
			p := timeFetch(1, func(o *core.FetchOptions) { g, _ = ix.TGI.GetSnapshot(tt, o) })
			p.X = float64(g.NumNodes())
			s.Points = append(s.Points, p)
		}
	})
	res.Series = append(res.Series, s)
	res.Elapsed = time.Since(start)
	return res
}

// versionProbeNodes picks nodes with version counts spread towards the
// target axis of Figures 14/16 (number of change points).
func versionProbeNodes(events []graph.Event, n int) []graph.NodeID {
	counts := make(map[graph.NodeID]int)
	for _, e := range events {
		counts[e.Node]++
		if e.Kind.IsEdge() {
			counts[e.Other]++
		}
	}
	type nc struct {
		id graph.NodeID
		n  int
	}
	all := make([]nc, 0, len(counts))
	for id, c := range counts {
		all = append(all, nc{id, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].id < all[j].id
	})
	// Sample the busy tail (the paper's x-axis spans ~0–150 changes):
	// evenly across the 300 most-versioned nodes, most-versioned first.
	region := min(300, len(all))
	out := make([]graph.NodeID, 0, n+1)
	for i := 0; i <= n; i++ {
		idx := region * i / (n + 1)
		out = append(out, all[idx].id)
	}
	return out
}

// versionRetrievalSeries measures GetNodeHistory time against version
// count for the sampled nodes.
func versionRetrievalSeries(ix *builtIndex, name string, clients int, nodes []graph.NodeID) Series {
	lo := ix.Events[0].Time
	hi := ix.Events[len(ix.Events)-1].Time + 1
	s := Series{Name: name}
	for _, id := range nodes {
		var h *core.NodeHistory
		p := timeFetch(clients, func(o *core.FetchOptions) { h, _ = ix.TGI.GetNodeHistory(id, lo, hi, o) })
		p.X = float64(h.VersionCount())
		s.Points = append(s.Points, p)
	}
	sort.Slice(s.Points, func(i, j int) bool { return s.Points[i].X < s.Points[j].X })
	return s
}

// Fig14a — node version retrieval vs eventlist size l.
func Fig14a(sc Scale) *Result {
	start := time.Now()
	events := Dataset1(sc)
	nodes := versionProbeNodes(events, 8)
	res := &Result{
		ID: "fig14a", Title: "Node version retrieval vs eventlist size",
		XLabel: "version changes", YLabel: "retrieval time (s)",
	}
	// Sweep eventlist sizes 4:2:1 (paper: l = 10000, 5000, 2500 — the
	// largest eventlists cost the most per version fetched).
	base := benchTGIConfig(len(events)).EventlistSize
	for _, l := range []int{4 * base, 2 * base, base} {
		ix := buildIndex(fmt.Sprintf("fig14a/l%d", l), events, 4, 1, func(cfg *core.Config) { cfg.EventlistSize = l })
		ix.metered(res, fmt.Sprintf("l=%d", l), func() {
			res.Series = append(res.Series, versionRetrievalSeries(ix, fmt.Sprintf("l=%d", l), 1, nodes))
		})
	}
	res.Elapsed = time.Since(start)
	return res
}

// Fig14b — node version retrieval vs parallel fetch factor c.
func Fig14b(sc Scale) *Result {
	start := time.Now()
	events := Dataset1(sc)
	nodes := versionProbeNodes(events, 8)
	ix := buildIndex("fig11", events, 4, 1, nil) // same shape as Fig 11
	res := &Result{
		ID: "fig14b", Title: "Node version retrieval vs parallel fetch factor",
		XLabel: "version changes", YLabel: "retrieval time (s)",
	}
	ix.metered(res, "c sweep", func() {
		for _, c := range []int{1, 2, 4} {
			res.Series = append(res.Series, versionRetrievalSeries(ix, fmt.Sprintf("c=%d", c), c, nodes))
		}
	})
	res.Elapsed = time.Since(start)
	return res
}

// Fig14c — node version retrieval vs micro-delta partition size.
func Fig14c(sc Scale) *Result {
	start := time.Now()
	events := Dataset1(sc)
	nodes := versionProbeNodes(events, 4)
	res := &Result{
		ID: "fig14c", Title: "Node version retrieval vs partition size",
		XLabel: "partition size (nodes)", YLabel: "retrieval time (s)",
	}
	s := Series{Name: "100-ish version changes"}
	for _, ps := range []int{500, 1000, 2500, 5000, 10000} {
		ix := buildIndex(fmt.Sprintf("fig14c/ps%d", ps), events, 4, 1, func(cfg *core.Config) { cfg.PartitionSize = ps })
		lo := events[0].Time
		hi := events[len(events)-1].Time + 1
		ix.metered(res, fmt.Sprintf("ps=%d", ps), func() {
			var runs []Point
			for _, id := range nodes {
				runs = append(runs, timeFetch(1, func(o *core.FetchOptions) { ix.TGI.GetNodeHistory(id, lo, hi, o) }))
			}
			p := mean(runs)
			p.X = float64(ps)
			s.Points = append(s.Points, p)
		})
	}
	res.Series = append(res.Series, s)
	res.Elapsed = time.Since(start)
	return res
}

// Fig15a — 1-hop retrieval with random vs locality ("Maxflow") vs
// locality + 1-hop replication (Dataset 4).
func Fig15a(sc Scale) *Result {
	start := time.Now()
	events := Dataset4(sc)
	res := &Result{
		ID: "fig15a", Title: "1-hop retrieval by partitioning/replication (avg over 250 random nodes)",
		XLabel: "0=random 1=maxflow 2=maxflow+replication", YLabel: "fetch time (s)",
	}
	configs := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"random", nil},
		{"maxflow", func(cfg *core.Config) { cfg.Partitioning = partition.Locality }},
		{"maxflow+replication", func(cfg *core.Config) {
			cfg.Partitioning = partition.Locality
			cfg.Replicate1Hop = true
		}},
	}
	g, _ := graph.FromEvents(events)
	ids := g.NodeIDs()
	rng := rand.New(rand.NewSource(99))
	sample := make([]graph.NodeID, 0, 250)
	for i := 0; i < 250 && len(ids) > 0; i++ {
		sample = append(sample, ids[rng.Intn(len(ids))])
	}
	probe := events[len(events)-1].Time
	for i, cf := range configs {
		ix := buildIndex("fig15a/"+cf.name, events, 4, 1, cf.mutate)
		var runs []Point
		ix.metered(res, cf.name, func() {
			for _, id := range sample {
				runs = append(runs, timeFetch(4, func(o *core.FetchOptions) { ix.TGI.GetKHopNeighborhood(id, 1, probe, o) }))
			}
		})
		avg := mean(runs)
		avg.X = float64(i)
		res.Series = append(res.Series, Series{Name: cf.name, Points: []Point{avg}})
	}
	res.Elapsed = time.Since(start)
	return res
}

// Fig15b — snapshot retrieval for growing histories (Datasets 1, 2, 3).
func Fig15b(sc Scale) *Result {
	start := time.Now()
	ds := map[string][]graph.Event{
		"Dataset 1": Dataset1(sc),
		"Dataset 2": Dataset2(sc),
		"Dataset 3": Dataset3(sc),
	}
	res := &Result{
		ID: "fig15b", Title: "Snapshot retrieval with growing index size (m=4, c=8)",
		XLabel: "snapshot size (node count)", YLabel: "retrieval time (s)",
	}
	// Probe the same times (within Dataset 1's range) so all three
	// indexes reconstruct comparable snapshots.
	probes := probeTimes(Dataset1(sc), 4)
	for _, name := range []string{"Dataset 1", "Dataset 2", "Dataset 3"} {
		events := ds[name]
		ix := buildIndex("fig15b/"+name, events, 4, 1, nil)
		s := Series{Name: fmt.Sprintf("%s (%d events)", name, len(events))}
		ix.metered(res, name, func() {
			for _, tt := range probes {
				var g *graph.Graph
				p := timeFetch(8, func(o *core.FetchOptions) { g, _ = ix.TGI.GetSnapshot(tt, o) })
				p.X = float64(g.NumNodes())
				s.Points = append(s.Points, p)
			}
		})
		res.Series = append(res.Series, s)
	}
	res.Elapsed = time.Since(start)
	return res
}

// Fig15c — TAF local-clustering-coefficient computation vs compute
// workers for three graph sizes.
func Fig15c(sc Scale) *Result {
	start := time.Now()
	events := Dataset1(sc)
	ix := buildIndex("fig11", events, 4, 1, nil)
	res := &Result{
		ID: "fig15c", Title: "TAF: highest-LCC computation vs compute workers",
		XLabel: "workers", YLabel: "compute time (s)",
	}
	// Three snapshot sizes (plain wall clock: Fig 15c measures compute).
	// Each point is the median of 3 runs with a GC between them — the
	// per-node task (cut the 1-hop subgraph, compute the root's LCC) is
	// allocation-heavy, and unmanaged GC debt would swamp the worker axis.
	probes := probeTimes(events, 3)
	for _, tt := range probes {
		g, err := ix.TGI.GetSnapshot(tt, nil)
		if err != nil {
			panic(err)
		}
		s := Series{Name: fmt.Sprintf("N=%d", g.NumNodes())}
		for _, w := range []int{1, 2, 3, 4, 5} {
			h := taf.NewHandler(ix.TGI, spark(w))
			sots, err := taf.SOTS(h, 1).TimesliceAt(tt).Fetch()
			if err != nil {
				panic(err)
			}
			samples := make([]float64, 0, 3)
			for rep := 0; rep < 3; rep++ {
				runtime.GC()
				samples = append(samples, timeIt(func() {
					lcc := taf.SubgraphComputeKV(sots, func(st *taf.SubgraphT) float64 {
						return st.StateAt(tt).LocalClusteringCoefficient(st.Root())
					})
					_ = lcc
				}))
			}
			sort.Float64s(samples)
			s.Points = append(s.Points, Point{X: float64(w), Y: samples[1]})
		}
		res.Series = append(res.Series, s)
	}
	res.Notes = append(res.Notes, "host has limited cores; speedup saturates at the physical core count")
	res.Elapsed = time.Since(start)
	return res
}

// Fig16 — node version retrieval on Friendster (m=6, c ∈ {1,2}).
func Fig16(sc Scale) *Result {
	start := time.Now()
	events := Dataset4(sc)
	nodes := versionProbeNodes(events, 8)
	ix := buildIndex("fig13c", events, 6, 1, nil)
	res := &Result{
		ID: "fig16", Title: "Node version retrieval, Friendster (m=6, r=1, ps=500)",
		XLabel: "version changes", YLabel: "retrieval time (s)",
	}
	ix.metered(res, "c sweep", func() {
		for _, c := range []int{1, 2} {
			res.Series = append(res.Series, versionRetrievalSeries(ix, fmt.Sprintf("c=%d", c), c, nodes))
		}
	})
	res.Elapsed = time.Since(start)
	return res
}

// Fig17 — NodeComputeTemporal vs NodeComputeDelta: cumulative label-count
// time over version counts on 2-hop neighborhoods (DBLP-like workload).
func Fig17(sc Scale) *Result {
	start := time.Now()
	events := DatasetDBLP(sc)
	ix := buildIndex("fig17", events, 2, 1, nil)
	res := &Result{
		ID: "fig17", Title: "Incremental vs per-version computation (2-hop label counting)",
		XLabel: "version count", YLabel: "cumulative compute time (s)",
	}
	h := taf.NewHandler(ix.TGI, spark(2))
	lo := events[0].Time
	hi := events[len(events)-1].Time + 1

	// Roots: authors with busy 2-hop neighborhoods.
	roots := versionProbeNodes(events, 6)
	sots, err := taf.SOTS(h, 2).Roots(roots...).Timeslice(temporal.NewInterval(lo+temporal.Time(len(events)/2), hi)).Fetch()
	if err != nil {
		panic(err)
	}
	countLabel := func(g *graph.Graph) int { return g.AttrCount("EntityType", "Author") }
	deltaCount := func(before *graph.Graph, aux any, val int, e graph.Event) (int, any) {
		if e.Kind == graph.SetNodeAttr && e.Key == "EntityType" {
			ns := before.Node(e.Node)
			was := ns != nil && ns.Attrs["EntityType"] == "Author"
			is := e.Value == "Author"
			if was && !is {
				return val - 1, aux
			}
			if !was && is {
				return val + 1, aux
			}
		}
		if e.Kind == graph.RemoveNode {
			if ns := before.Node(e.Node); ns != nil && ns.Attrs["EntityType"] == "Author" {
				return val - 1, aux
			}
		}
		return val, aux
	}

	fresh := Series{Name: "NodeComputeTemporal"}
	incr := Series{Name: "NodeComputeDelta"}
	for _, versions := range []int{2, 5, 10, 15, 20} {
		versions := versions
		// Truncate each subgraph's stream to its first `versions` change
		// points so both operators process exactly that many versions.
		var truncated []*core.SubgraphHistory
		for _, st := range sots.Collect() {
			cps := st.ChangePoints()
			if len(cps) == 0 {
				continue
			}
			n := min(versions, len(cps))
			cut := cps[n-1]
			sh := &core.SubgraphHistory{
				Root: st.Root(), K: 2,
				Interval: temporal.Interval{Start: st.Span().Start, End: cut + 1},
				Initial:  st.StateAt(st.Span().Start),
				Members:  st.Members(),
			}
			for _, e := range st.Events() {
				if e.Time <= cut {
					sh.Events = append(sh.Events, e)
				}
			}
			truncated = append(truncated, sh)
		}
		tr := taf.NewSoTSFromHistories(h, 2, sots.Span(), truncated)
		freshSec := timeIt(func() { taf.SubgraphComputeTemporal(tr, countLabel, nil) })
		incrSec := timeIt(func() {
			taf.SubgraphComputeDelta(tr,
				func(g *graph.Graph) (int, any) { return countLabel(g), nil }, deltaCount)
		})
		fresh.Points = append(fresh.Points, Point{X: float64(versions), Y: freshSec})
		incr.Points = append(incr.Points, Point{X: float64(versions), Y: incrSec})
	}
	res.Series = append(res.Series, fresh, incr)
	res.Elapsed = time.Since(start)
	return res
}

// Table1 — the access-cost comparison: analytical closed forms
// instantiated for Dataset 1, plus measured store reads for every
// implemented index on a downscaled history (Copy is quadratic).
func Table1(sc Scale) *Result {
	start := time.Now()
	res := &Result{ID: "table1", Title: "Access costs across temporal indexes"}

	events := Dataset1(sc)
	g, _ := graph.FromEvents(events)
	params := baseline.DeriveCostParams(len(events), g.NumNodes(), benchTGIConfig(len(events)).EventlistSize, 2, 500)
	res.TableHeader = []string{"index", "size", "snapshot", "static vertex", "vertex versions", "1-hop", "1-hop versions"}
	for _, row := range baseline.CostTable(params) {
		res.TableRows = append(res.TableRows, []string{
			row.Index,
			fmt.Sprintf("%.3g", row.Size),
			row.Snapshot.String(),
			row.StaticVertex.String(),
			row.VertexVersions.String(),
			row.OneHop.String(),
			row.OneHopVersions.String(),
		})
	}
	res.Notes = append(res.Notes, "analytical cells are Σ|∆| / Σ1 per Table 1 of the paper")

	// Measured reads on a small history (Copy stores O(G²)).
	small := workload.Wikipedia(workload.WikiConfig{Nodes: 600, EdgesPerNode: 3, Seed: 11})
	mk := func(name string) *kvstore.Cluster { return newCluster("table1/"+name, 2, 1) }
	tgiCfg := core.DefaultConfig()
	tgiCfg.TimespanEvents = len(small)
	tgiCfg.EventlistSize = max(len(small)/10, 1)
	tgiCfg.PartitionSize = 50
	tgiCfg.HorizontalPartitions = 2
	tgiCfg.CacheBytes = -1 // measured rows count store reads, not cache hits
	type entryT struct {
		name    string
		ix      baseline.Index
		cluster *kvstore.Cluster
	}
	withCluster := func(name string, c *kvstore.Cluster, mkIx func(*kvstore.Cluster) baseline.Index) entryT {
		return entryT{name: name, ix: mkIx(c), cluster: c}
	}
	chunk := max(len(small)/10, 1)
	indexes := []entryT{
		withCluster("Log", mk("log"), func(c *kvstore.Cluster) baseline.Index { return baseline.NewLogIndex(c, chunk) }),
		withCluster("Copy", mk("copy"), func(c *kvstore.Cluster) baseline.Index { return baseline.NewCopyIndex(c) }),
		withCluster("Copy+Log", mk("copylog"), func(c *kvstore.Cluster) baseline.Index {
			return baseline.NewCopyLogIndex(c, max(len(small)/4, 1), chunk)
		}),
		withCluster("Node Centric", mk("nodecentric"), func(c *kvstore.Cluster) baseline.Index { return baseline.NewNodeCentricIndex(c, 50) }),
		withCluster("DeltaGraph", mk("deltagraph"), func(c *kvstore.Cluster) baseline.Index { return baseline.NewDeltaGraph(c, chunk) }),
		withCluster("TGI", mk("tgi"), func(c *kvstore.Cluster) baseline.Index { return baseline.NewTGIAdapter("tgi", c, tgiCfg) }),
	}
	lo, hi := small[0].Time, small[len(small)-1].Time
	probe := (lo + hi) / 2
	res.Notes = append(res.Notes, "measured rows: store reads for snapshot / static vertex / vertex versions on a 600-node history")
	for _, entry := range indexes {
		if err := entry.ix.Build(small); err != nil {
			panic(fmt.Sprintf("bench: table1 build %s: %v", entry.name, err))
		}
	}
	hdr := []string{"index (measured)", "stored bytes", "snapshot reads", "static vertex reads", "vertex version reads"}
	res.TableRows = append(res.TableRows, hdr)
	for _, entry := range indexes {
		reads := func(f func()) int64 {
			before := entry.cluster.Metrics().Reads
			f()
			return entry.cluster.Metrics().Reads - before
		}
		snapReads := reads(func() { entry.ix.Snapshot(probe) })
		nodeReads := reads(func() { entry.ix.StaticNode(5, probe) })
		verReads := reads(func() { entry.ix.NodeVersions(5, lo, hi+1) })
		res.TableRows = append(res.TableRows, []string{
			entry.name,
			fmt.Sprintf("%d", entry.ix.StorageBytes()),
			fmt.Sprintf("%d", snapReads),
			fmt.Sprintf("%d", nodeReads),
			fmt.Sprintf("%d", verReads),
		})
	}
	// These clusters are not cached; release their engines (file
	// handles, when the disk backend is active).
	for _, entry := range indexes {
		entry.cluster.Close()
	}
	res.Elapsed = time.Since(start)
	return res
}

// AblationArity — snapshot latency and index size across tree arities.
func AblationArity(sc Scale) *Result {
	start := time.Now()
	events := Dataset1(sc)
	res := &Result{
		ID: "ablation-arity", Title: "Ablation: delta tree arity",
		XLabel: "arity", YLabel: "snapshot retrieval time (s)",
	}
	probe := probeTimes(events, 2)[1]
	s := Series{Name: "snapshot time (c=4)"}
	for _, k := range []int{2, 4, 8} {
		ix := buildIndex(fmt.Sprintf("abl-arity/%d", k), events, 4, 1, func(cfg *core.Config) { cfg.Arity = k })
		var p Point
		ix.metered(res, fmt.Sprintf("arity=%d", k), func() {
			p = timeFetch(4, func(o *core.FetchOptions) { ix.TGI.GetSnapshot(probe, o) })
		})
		st, _ := ix.TGI.Stats()
		res.Notes = append(res.Notes, fmt.Sprintf("arity=%d stored bytes: %d", k, st.LogicalBytes))
		p.X = float64(k)
		s.Points = append(s.Points, p)
	}
	res.Series = append(res.Series, s)
	res.Elapsed = time.Since(start)
	return res
}

// AblationVersionChains — node history retrieval with and without the
// Versions table.
func AblationVersionChains(sc Scale) *Result {
	start := time.Now()
	events := Dataset1(sc)
	ix := buildIndex("fig11", events, 4, 1, nil)
	nodes := versionProbeNodes(events, 8)
	lo := events[0].Time
	hi := events[len(events)-1].Time + 1
	res := &Result{
		ID: "ablation-vc", Title: "Ablation: version chains on node history retrieval",
		XLabel: "version changes", YLabel: "retrieval time (s)",
	}
	withVC := Series{Name: "version chains"}
	without := Series{Name: "full eventlist scan"}
	ix.metered(res, "fig11 index", func() {
		for _, id := range nodes {
			var h *core.NodeHistory
			p := timeFetch(1, func(o *core.FetchOptions) { h, _ = ix.TGI.GetNodeHistory(id, lo, hi, o) })
			p.X = float64(h.VersionCount())
			withVC.Points = append(withVC.Points, p)
			p = timeFetch(1, func(o *core.FetchOptions) { h, _ = ix.TGI.GetNodeHistoryScan(id, lo, hi, o) })
			p.X = float64(h.VersionCount())
			without.Points = append(without.Points, p)
		}
	})
	res.Series = append(res.Series, withVC, without)
	res.Elapsed = time.Since(start)
	return res
}

// Order lists every experiment id in paper order.
var Order = []string{
	"table1",
	"fig11", "fig12",
	"fig13a", "fig13b", "fig13c",
	"fig14a", "fig14b", "fig14c",
	"fig15a", "fig15b", "fig15c",
	"fig16", "fig17",
	"ablation-arity", "ablation-vc",
}

// Runners maps experiment ids to their runners for CLI selection.
var Runners = map[string]func(Scale) *Result{
	"table1":         Table1,
	"fig11":          Fig11,
	"fig12":          Fig12,
	"fig13a":         Fig13a,
	"fig13b":         Fig13b,
	"fig13c":         Fig13c,
	"fig14a":         Fig14a,
	"fig14b":         Fig14b,
	"fig14c":         Fig14c,
	"fig15a":         Fig15a,
	"fig15b":         Fig15b,
	"fig15c":         Fig15c,
	"fig16":          Fig16,
	"fig17":          Fig17,
	"ablation-arity": AblationArity,
	"ablation-vc":    AblationVersionChains,
}
