// Package bench is the paper reproduction and nothing else: it
// regenerates every table and figure of the paper's evaluation (§6,
// Table 1 and Figures 11–17) plus two ablations on the scaled synthetic
// datasets, one runner per experiment, each returning a Result with the
// same series/rows the paper plots. The runners are shared by
// cmd/hgs-bench and the root testing.B benchmarks.
//
// Every figure cluster charges kvstore.DefaultLatency to a modelled
// clock, and each retrieval is plotted as its wall time — the real
// planning, decode and materialization work, since the store never
// waits — plus its modelled storage time (fetch.TraceRecord.ModelTime:
// per store round, the busiest node's summed service cost). The
// storage part is deterministic, so the figures reproduce the paper's
// *shapes* (what c, m, r, ps and l do to retrieval time), not this
// system's real cost; Figures 15c and 17 measure compute and plot
// plain wall clock. Performance is measured in exactly one other place
// — the benchmark/ module (BENCHMARK.json: latency model off,
// oracle-checked, the gate every PR is judged by); no system
// experiment belongs here.
//
// Scale note: the paper's datasets are 266M–1B events on an EC2 cluster;
// these runners default to ~10^5-event datasets sized for a laptop and a
// simulated storage cluster. Absolute numbers therefore differ from the
// paper by construction.
package bench

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hgs/internal/backend/disklog"
	"hgs/internal/core"
	"hgs/internal/fetch"
	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/temporal"
	"hgs/internal/workload"
)

// Scale controls dataset sizes. Multiply reproduces the paper at larger
// fractions of its original size (set HGS_SCALE to scale all datasets).
type Scale struct {
	// WikiNodes is Dataset 1's node count.
	WikiNodes int
	// WikiEdgesPerNode is Dataset 1's mean out-degree.
	WikiEdgesPerNode int
	// Augment2 and Augment3 are the extra churn events of Datasets 2, 3.
	Augment2 int
	Augment3 int
	// FriendsterCommunities × FriendsterSize nodes form Dataset 4.
	FriendsterCommunities int
	FriendsterSize        int
	// DBLP sizes for the Figure 17 workload.
	DBLPAuthors int
	DBLPPapers  int
	DBLPChurn   int
}

// DefaultScale returns the laptop-scale defaults, multiplied by the
// HGS_SCALE environment variable when set (e.g. HGS_SCALE=4).
func DefaultScale() Scale {
	mul := 1.0
	if s := os.Getenv("HGS_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			mul = v
		}
	}
	scale := func(n int) int { return max(int(float64(n)*mul), 8) }
	return Scale{
		WikiNodes:             scale(20_000),
		WikiEdgesPerNode:      4,
		Augment2:              scale(40_000),
		Augment3:              scale(90_000),
		FriendsterCommunities: scale(60),
		FriendsterSize:        200,
		DBLPAuthors:           scale(1_500),
		DBLPPapers:            scale(3_000),
		DBLPChurn:             scale(4_000),
	}
}

// Point is one sample of a plotted series. Model is the modelled
// storage time included in Y (zero for the compute figures).
type Point struct {
	X, Y  float64
	Model float64
}

// Series is one labeled line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Result is one regenerated table or figure.
type Result struct {
	ID     string // e.g. "fig11", "table1"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Table carries row-oriented results (Table 1).
	TableHeader []string
	TableRows   [][]string
	Notes       []string
	Elapsed     time.Duration
}

// Print renders the result as aligned text.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	if r.XLabel != "" || r.YLabel != "" {
		fmt.Fprintf(w, "   x: %s   y: %s\n", r.XLabel, r.YLabel)
	}
	for _, s := range r.Series {
		fmt.Fprintf(w, "  series %s\n", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(w, "    %14.4f  %14.6f", p.X, p.Y)
			if p.Model != 0 {
				fmt.Fprintf(w, "  (storage %.6f)", p.Model)
			}
			fmt.Fprintln(w)
		}
	}
	if len(r.TableRows) > 0 {
		widths := make([]int, len(r.TableHeader))
		rows := append([][]string{r.TableHeader}, r.TableRows...)
		for _, row := range rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		for ri, row := range rows {
			var b strings.Builder
			for i, cell := range row {
				fmt.Fprintf(&b, "  %-*s", widths[i], cell)
			}
			fmt.Fprintln(w, b.String())
			if ri == 0 {
				fmt.Fprintln(w, "  "+strings.Repeat("-", sum(widths)+2*len(widths)-2))
			}
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  elapsed: %s\n\n", r.Elapsed.Round(time.Millisecond))
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// --- storage backend selection -----------------------------------------

// dataDir, when set, runs every benchmark cluster on the durable disklog
// backend under this directory (one subdirectory per cluster) so memory
// and disk engines can be compared on identical workloads.
var dataDir atomic.Pointer[string]

// SetDataDir switches benchmark clusters to the disk backend rooted at
// dir (empty string returns to the in-memory engine). Call before
// running experiments; cmd/hgs-bench wires this to its -data flag.
func SetDataDir(dir string) { dataDir.Store(&dir) }

// newCluster builds a store cluster for the experiment identified by
// key, charging the default latency model, on disk when SetDataDir is
// active.
func newCluster(key string, machines, replication int) *kvstore.Cluster {
	cfg := kvstore.Config{Machines: machines, Replication: replication, Latency: kvstore.DefaultLatency()}
	if d := dataDir.Load(); d != nil && *d != "" {
		sub := filepath.Join(*d, strings.NewReplacer("/", "_", " ", "_").Replace(key))
		cfg.Backend = disklog.Factory(sub, disklog.Options{})
	}
	c, err := kvstore.Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: open cluster %s: %v", key, err))
	}
	return c
}

// --- dataset & index caching -------------------------------------------

// Building a TGI over 10^5 events takes seconds; experiments share
// datasets and indexes through this process-level cache. Entries carry a
// per-key Once so builds run outside the map lock — a build may itself
// resolve other cache keys (Dataset2 depends on Dataset1).
type cacheEntry struct {
	once sync.Once
	val  any
}

var cache = struct {
	sync.Mutex
	data map[string]*cacheEntry
}{data: make(map[string]*cacheEntry)}

func cached[T any](key string, build func() T) T {
	cache.Lock()
	e, ok := cache.data[key]
	if !ok {
		e = &cacheEntry{}
		cache.data[key] = e
	}
	cache.Unlock()
	e.once.Do(func() { e.val = build() })
	return e.val.(T)
}

// ResetCache drops all cached datasets and indexes (used by tests),
// closing the storage engines of cached clusters.
func ResetCache() {
	cache.Lock()
	defer cache.Unlock()
	for _, e := range cache.data {
		if bi, ok := e.val.(*builtIndex); ok && bi != nil {
			bi.Cluster.Close()
		}
	}
	cache.data = make(map[string]*cacheEntry)
}

// cachedEvents is cached() with an optional on-disk layer: when
// HGS_DATASET_DIR is set, synthesized datasets are gob-encoded there
// under the cache key (which embeds every size parameter), so repeated
// runs — and CI jobs restoring the directory from a build cache — pay
// the multi-second generation cost once. A corrupt or unreadable file
// falls back to regeneration and is rewritten.
func cachedEvents(key string, build func() []graph.Event) []graph.Event {
	return cached(key, func() []graph.Event {
		dir := os.Getenv("HGS_DATASET_DIR")
		if dir == "" {
			return build()
		}
		path := filepath.Join(dir, strings.NewReplacer("/", "_").Replace(key)+".gob")
		if f, err := os.Open(path); err == nil {
			var events []graph.Event
			err := gob.NewDecoder(f).Decode(&events)
			f.Close()
			if err == nil && len(events) > 0 {
				return events
			}
		}
		events := build()
		if err := os.MkdirAll(dir, 0o755); err == nil {
			tmp := path + ".tmp"
			if f, err := os.Create(tmp); err == nil {
				err := gob.NewEncoder(f).Encode(events)
				if cerr := f.Close(); err == nil && cerr == nil {
					os.Rename(tmp, path)
				} else {
					os.Remove(tmp)
				}
			}
		}
		return events
	})
}

// Dataset1 is the Wikipedia-like growth history.
func Dataset1(sc Scale) []graph.Event {
	return cachedEvents(fmt.Sprintf("ds1/%d/%d", sc.WikiNodes, sc.WikiEdgesPerNode), func() []graph.Event {
		return workload.Wikipedia(workload.WikiConfig{Nodes: sc.WikiNodes, EdgesPerNode: sc.WikiEdgesPerNode, Seed: 1})
	})
}

// Dataset2 augments Dataset 1 with churn (paper: +333M events).
func Dataset2(sc Scale) []graph.Event {
	return cachedEvents(fmt.Sprintf("ds2/%d/%d/%d", sc.WikiNodes, sc.WikiEdgesPerNode, sc.Augment2), func() []graph.Event {
		return workload.Augment(Dataset1(sc), workload.AugmentConfig{Extra: sc.Augment2, DeleteFraction: 0.25, Seed: 2})
	})
}

// Dataset3 augments Dataset 1 with more churn (paper: +733M events).
func Dataset3(sc Scale) []graph.Event {
	return cachedEvents(fmt.Sprintf("ds3/%d/%d/%d", sc.WikiNodes, sc.WikiEdgesPerNode, sc.Augment3), func() []graph.Event {
		return workload.Augment(Dataset1(sc), workload.AugmentConfig{Extra: sc.Augment3, DeleteFraction: 0.25, Seed: 3})
	})
}

// Dataset4 is the Friendster-like community graph.
func Dataset4(sc Scale) []graph.Event {
	return cachedEvents(fmt.Sprintf("ds4/%d/%d", sc.FriendsterCommunities, sc.FriendsterSize), func() []graph.Event {
		return workload.Friendster(workload.FriendsterConfig{
			Communities:   sc.FriendsterCommunities,
			CommunitySize: sc.FriendsterSize,
			IntraDegree:   8,
			InterFraction: 0.05,
			Seed:          4,
		})
	})
}

// DatasetDBLP is the bipartite author/paper history for Figure 17.
func DatasetDBLP(sc Scale) []graph.Event {
	return cachedEvents(fmt.Sprintf("dblp/%d/%d/%d", sc.DBLPAuthors, sc.DBLPPapers, sc.DBLPChurn), func() []graph.Event {
		return workload.DBLP(workload.DBLPConfig{
			Authors:         sc.DBLPAuthors,
			Papers:          sc.DBLPPapers,
			AuthorsPerPaper: 3,
			AttrChurn:       sc.DBLPChurn,
			Seed:            5,
		})
	})
}

// benchTGIConfig is the evaluation's default index parameterization,
// scaled to the dataset sizes (ps=500 as in the paper). The decoded
// delta cache is disabled: the paper's figures sweep one variable
// (c, m, r, ps, l) over repeated probes of the same index, and a warm
// cache would serve the later series from memory and flatten exactly
// the effect under study.
func benchTGIConfig(events int) core.Config {
	cfg := core.DefaultConfig()
	cfg.TimespanEvents = max(events/2, 1)
	cfg.EventlistSize = max(cfg.TimespanEvents/8, 1)
	cfg.HorizontalPartitions = 4
	cfg.PartitionSize = 500
	cfg.Arity = 2
	cfg.FetchClients = 1
	cfg.CacheBytes = -1
	return cfg
}

// builtIndex is a constructed index plus its backing cluster.
type builtIndex struct {
	TGI     *core.TGI
	Cluster *kvstore.Cluster
	Events  []graph.Event
}

// buildIndex constructs (and caches) a TGI over the events with the
// given store shape and config mutator.
func buildIndex(key string, events []graph.Event, machines, replication int, mutate func(*core.Config)) *builtIndex {
	return cached("idx/"+key, func() *builtIndex {
		cluster := newCluster("idx/"+key, machines, replication)
		cfg := benchTGIConfig(len(events))
		if mutate != nil {
			mutate(&cfg)
		}
		tgi, err := core.Build(cluster, cfg, events)
		if err != nil {
			panic(fmt.Sprintf("bench: build %s: %v", key, err))
		}
		return &builtIndex{TGI: tgi, Cluster: cluster, Events: events}
	})
}

// metered runs f after warming the query manager's metadata caches
// (one un-timed probe, so single-fetch measurements are not dominated
// by cold metadata reads) and appends the store-metrics delta of the
// run (logical KV ops, machine round-trips, bytes, modelled service
// time summed over nodes) and the index's cache counters to the
// result's Notes — how a figure's counters are checked from the CLI.
func (b *builtIndex) metered(res *Result, label string, f func()) {
	if lo, _, err := b.TGI.TimeRange(); err == nil {
		b.TGI.GetSnapshot(lo, &core.FetchOptions{Clients: 4})
	}
	before := b.Cluster.Metrics()
	f()
	after := b.Cluster.Metrics()
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%s: kv reads=%d round-trips=%d read=%dKB modelled-wait=%s; %s",
		label, after.Reads-before.Reads, after.RoundTrips-before.RoundTrips,
		(after.BytesRead-before.BytesRead)/1024,
		(after.SimWait-before.SimWait).Round(time.Millisecond),
		b.TGI.CacheStats()))
}

// timeIt measures f's wall time in seconds.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// timeFetch runs one retrieval with c clients under a fresh per-call
// trace and returns its plotted time: Y is the wall time plus the
// modelled storage time, Model the latter alone. X is the caller's.
func timeFetch(c int, f func(*core.FetchOptions)) Point {
	opts := &core.FetchOptions{Clients: c, Trace: &fetch.Trace{}}
	wall := timeIt(func() { f(opts) })
	model := opts.Trace.Record().ModelTime.Seconds()
	return Point{Y: wall + model, Model: model}
}

// mean averages the timings of points (X is left zero).
func mean(points []Point) Point {
	var m Point
	for _, p := range points {
		m.Y += p.Y
		m.Model += p.Model
	}
	if n := float64(len(points)); n > 0 {
		m.Y /= n
		m.Model /= n
	}
	return m
}

// probeTimes picks n timepoints spread over the history so snapshot
// queries retrieve increasing sizes (the growth datasets' x-axis).
func probeTimes(events []graph.Event, n int) []temporal.Time {
	out := make([]temporal.Time, n)
	for i := 1; i <= n; i++ {
		idx := len(events)*i/n - 1
		out[i-1] = events[idx].Time
	}
	return out
}
