package hgs

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hgs/internal/graph"
	"hgs/internal/workload"
)

func smallOptions() Options {
	return Options{
		Machines:             2,
		TimespanEvents:       2000,
		EventlistSize:        400,
		HorizontalPartitions: 2,
		PartitionSize:        100,
	}
}

func loadWiki(t *testing.T, opts Options, nodes int) (*Store, []Event) {
	t.Helper()
	events := workload.Wikipedia(workload.WikiConfig{Nodes: nodes, EdgesPerNode: 3, Seed: 42})
	store, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Load(events); err != nil {
		t.Fatal(err)
	}
	return store, events
}

// mustGraph replays the raw history up to and including tt (the oracle).
func mustGraph(events []Event, tt Time) *Graph {
	g := graph.New()
	for _, e := range events {
		if e.Time > tt {
			break
		}
		g.Apply(e)
	}
	return g
}

func TestStoreEndToEnd(t *testing.T) {
	store, events := loadWiki(t, smallOptions(), 800)
	lo, hi, err := store.TimeRange()
	if err != nil {
		t.Fatal(err)
	}
	if lo != events[0].Time || hi != events[len(events)-1].Time {
		t.Fatalf("time range [%d,%d]", lo, hi)
	}
	mid := (lo + hi) / 2
	g, err := store.Snapshot(mid)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(mustGraph(events, mid)) {
		t.Fatal("snapshot mismatch")
	}
	ns, err := store.Node(5, hi)
	if err != nil {
		t.Fatal(err)
	}
	want := mustGraph(events, hi).Node(5)
	if (ns == nil) != (want == nil) || (ns != nil && !ns.Equal(want)) {
		t.Fatal("node state mismatch")
	}
	h, err := store.NodeHistory(5, lo, hi+1)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.StateAt(mid); (got == nil) != (mustGraph(events, mid).Node(5) == nil) {
		t.Fatal("history state mismatch")
	}
	sub, err := store.KHop(5, 1, mid)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Equal(mustGraph(events, mid).KHopSubgraph(5, 1)) {
		t.Fatal("k-hop mismatch")
	}
	st, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != len(events) {
		t.Fatalf("stats events = %d", st.Events)
	}
}

func TestStoreAppend(t *testing.T) {
	events := workload.Wikipedia(workload.WikiConfig{Nodes: 600, EdgesPerNode: 3, Seed: 7})
	cut := len(events) * 2 / 3
	store, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Load(events[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := store.Append(events[cut:]); err != nil {
		t.Fatal(err)
	}
	hi := events[len(events)-1].Time
	g, err := store.Snapshot(hi)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(mustGraph(events, hi)) {
		t.Fatal("post-append snapshot mismatch")
	}
	if err := store.Load(events); err == nil {
		t.Fatal("double Load must fail")
	}
}

// TestIngestRules pins the rules Load and Append keep through their one
// ingest body: an empty history and an empty batch into an unloaded
// store fail, a failed ingest leaves the store unloaded, an Append into
// an unloaded store loads it, Load refuses a loaded store, and an empty
// batch into a loaded store is a no-op.
func TestIngestRules(t *testing.T) {
	events := workload.Wikipedia(workload.WikiConfig{Nodes: 200, EdgesPerNode: 3, Seed: 7})
	cut := len(events) / 2
	store, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Load(nil); err == nil {
		t.Fatal("Load of an empty history must fail")
	}
	if err := store.Append(nil); err == nil {
		t.Fatal("an empty batch into an unloaded store must fail")
	}
	if err := store.Load([]Event{events[1], events[0]}); err == nil {
		t.Fatal("Load of an unordered history must fail")
	}
	if store.Loaded() {
		t.Fatal("a failed ingest loaded the store")
	}
	if err := store.Append(events[:cut]); err != nil {
		t.Fatal(err)
	}
	if !store.Loaded() {
		t.Fatal("an Append into an unloaded store must load it")
	}
	if err := store.Load(events[cut:]); err == nil {
		t.Fatal("Load on a loaded store must fail")
	}
	writes := store.Cluster().Metrics().Writes
	if err := store.Append(nil); err != nil {
		t.Fatalf("an empty batch into a loaded store: %v", err)
	}
	if got := store.Cluster().Metrics().Writes; got != writes {
		t.Fatalf("an empty batch wrote %d rows", got-writes)
	}
	if err := store.Append(events[cut:]); err != nil {
		t.Fatal(err)
	}
	hi := events[len(events)-1].Time
	if g, err := store.Snapshot(hi); err != nil || !g.Equal(mustGraph(events, hi)) {
		t.Fatalf("snapshot after the ingests differs from the oracle (err %v)", err)
	}
}

// TestConcurrentAppendSerialized: ingests are serialized, so of several
// goroutines appending the same trailing batch exactly one is indexed
// and the rest fail the ordering check — unserialized, all of them pass
// it before any writes graph-meta, and each then drops and rebuilds the
// trailing span over the others.
func TestConcurrentAppendSerialized(t *testing.T) {
	events := workload.Wikipedia(workload.WikiConfig{Nodes: 800, EdgesPerNode: 3, Seed: 42})
	cut := len(events) * 3 / 4
	store, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Load(events[:cut]); err != nil {
		t.Fatal(err)
	}
	const writers = 4
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = store.Append(events[cut:])
		}()
	}
	wg.Wait()
	accepted := 0
	for _, err := range errs {
		switch {
		case err == nil:
			accepted++
		case !strings.Contains(err.Error(), "not after indexed history end"):
			t.Fatalf("losing append failed with %v, want the ordering error", err)
		}
	}
	if accepted != 1 {
		t.Fatalf("%d of %d concurrent appends of one batch accepted, want exactly 1 (errors: %v)", accepted, writers, errs)
	}
	st, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != len(events) {
		t.Fatalf("stats events = %d, want %d", st.Events, len(events))
	}
	hi := events[len(events)-1].Time
	g, err := store.Snapshot(hi)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustGraph(events, hi); !g.Equal(want) {
		t.Fatalf("snapshot after concurrent appends has %d nodes, replay has %d", g.NumNodes(), want.NumNodes())
	}
}

func TestAnalyticsSurface(t *testing.T) {
	store, events := loadWiki(t, smallOptions(), 600)
	_, hi, _ := store.TimeRange()
	a := store.Analytics(2)

	son, err := a.SON().Timeslice(NewInterval(hi/2, hi+1)).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	// Evolution of density matches direct measurement.
	series := Evolution(son, GraphDensity, 3, nil)
	for _, s := range series {
		want := mustGraph(events, s.Time).Density()
		if math.Abs(s.Value-want) > 1e-12 {
			t.Fatalf("density at %d: %v != %v", s.Time, s.Value, want)
		}
	}
	// Highest-LCC node via SoTS (the paper's Figure 7a query).
	sots, err := a.SOTS(1).TimesliceAt(hi).Fetch()
	if err != nil {
		t.Fatal(err)
	}
	lcc := SubgraphComputeKV(sots, func(st *SubgraphT) float64 {
		return st.StateAt(hi).LocalClusteringCoefficient(st.Root())
	})
	bestID, best := NodeID(-1), -1.0
	for id, v := range lcc {
		if v > best || (v == best && id < bestID) {
			bestID, best = id, v
		}
	}
	wantG := mustGraph(events, hi)
	for _, id := range wantG.NodeIDs() {
		if v := wantG.LocalClusteringCoefficient(id); v > best+1e-12 {
			t.Fatalf("missed higher LCC at node %d: %v > %v", id, v, best)
		}
	}
}

// TestDurableRoundTrip is the acceptance test for the disk backend: a
// store built with DataDir is closed and reopened (as a new process
// would) without calling Load, and every query must match both the raw
// history and a fresh in-memory store.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	events := workload.Wikipedia(workload.WikiConfig{Nodes: 500, EdgesPerNode: 3, Seed: 11})

	opts := smallOptions()
	opts.DataDir = dir
	durable, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if durable.Loaded() {
		t.Fatal("fresh data dir must not report loaded")
	}
	if !durable.Durable() {
		t.Fatal("DataDir store must report durable")
	}
	if err := durable.Load(events); err != nil {
		t.Fatal(err)
	}
	lo, hi, err := durable.TimeRange()
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}

	// Reattach with zero options: shape and TGI config come from disk.
	reopened, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if !reopened.Loaded() {
		t.Fatal("reopened store must reattach without Load")
	}
	if err := reopened.Load(events); err == nil {
		t.Fatal("Load on a reattached store must fail")
	}

	mem, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Load(events); err != nil {
		t.Fatal(err)
	}
	if l, h, err := reopened.TimeRange(); err != nil || l != lo || h != hi {
		t.Fatalf("time range after reopen: [%d,%d] err=%v", l, h, err)
	}
	for _, tt := range []Time{lo, (lo + hi) / 2, hi} {
		want := mustGraph(events, tt)
		got, err := reopened.Snapshot(tt)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("snapshot@%d mismatch after reopen", tt)
		}
		fromMem, err := mem.Snapshot(tt)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(fromMem) {
			t.Fatalf("snapshot@%d: disk and memory backends diverge", tt)
		}
	}
	for _, id := range []NodeID{1, 5, 42} {
		h1, err := reopened.NodeHistory(id, lo, hi+1)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := mem.NodeHistory(id, lo, hi+1)
		if err != nil {
			t.Fatal(err)
		}
		if len(h1.Events) != len(h2.Events) {
			t.Fatalf("node %d history: %d vs %d events", id, len(h1.Events), len(h2.Events))
		}
		k1, err := reopened.KHop(id, 2, hi)
		if err != nil {
			t.Fatal(err)
		}
		if !k1.Equal(mustGraph(events, hi).KHopSubgraph(id, 2)) {
			t.Fatalf("k-hop of %d mismatch after reopen", id)
		}
	}

	// The reattached store accepts appends, and they persist too.
	extra := []Event{
		{Time: hi + 10, Kind: AddNode, Node: 990_001},
		{Time: hi + 20, Kind: AddNode, Node: 990_002},
		{Time: hi + 30, Kind: AddEdge, Node: 990_001, Other: 990_002},
	}
	if err := reopened.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	third, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	g, err := third.Snapshot(hi + 30)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(990_001, 990_002) {
		t.Fatal("appended edge lost across second reopen")
	}
}

func TestDataDirShapeConflictRejected(t *testing.T) {
	dir := t.TempDir()
	// A failed Open must not stamp a shape into an empty directory.
	if _, err := Open(Options{DataDir: dir, TimespanEvents: 10, EventlistSize: 100}); err == nil {
		t.Fatal("invalid options must fail")
	}
	if _, err := os.Stat(filepath.Join(dir, "cluster.json")); err == nil {
		t.Fatal("failed Open left cluster.json behind")
	}
	opts := smallOptions()
	opts.DataDir = dir
	store, err := Open(opts) // Machines: 2
	if err != nil {
		t.Fatal(err)
	}
	store.Close()
	bad := smallOptions()
	bad.DataDir = dir
	bad.Machines = 5
	if _, err := Open(bad); err == nil {
		t.Fatal("conflicting machine count must be rejected")
	}
	// Zero options adopt the stored shape.
	ok, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Close()
	if got := ok.Cluster().Machines(); got != 2 {
		t.Fatalf("adopted machines = %d, want 2", got)
	}
}

func TestOptionsValidation(t *testing.T) {
	_, err := Open(Options{TimespanEvents: 10, EventlistSize: 100})
	if err == nil {
		t.Fatal("invalid options must fail")
	}
}

func TestFullOptionMatrix(t *testing.T) {
	// Locality partitioning + 1-hop replication + compression, end to
	// end through the public API.
	events := workload.Friendster(workload.FriendsterConfig{
		Communities: 6, CommunitySize: 80, IntraDegree: 5, InterFraction: 0.05, Seed: 9,
	})
	store, err := Open(Options{
		Machines:             3,
		Replication:          2,
		TimespanEvents:       len(events)/2 + 1,
		EventlistSize:        len(events) / 10,
		PartitionSize:        60,
		HorizontalPartitions: 2,
		LocalityPartitioning: true,
		Replicate1Hop:        true,
		Compress:             true,
		FetchClients:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Load(events); err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := store.TimeRange()
	mid := (lo + hi) / 2
	want := mustGraph(events, mid)
	got, err := store.Snapshot(mid)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("snapshot mismatch under locality+replication+compression")
	}
	for _, id := range []NodeID{0, 81, 200} {
		hood, err := store.KHop(id, 1, mid)
		if err != nil {
			t.Fatal(err)
		}
		if !hood.Equal(want.KHopSubgraph(id, 1)) {
			t.Fatalf("1-hop of %d mismatch", id)
		}
	}
	// Multi-point retrieval APIs.
	gs, err := store.Snapshots([]Time{lo + 10, mid, hi})
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 3 || !gs[1].Equal(want) {
		t.Fatal("multipoint snapshots wrong")
	}
}

func TestCacheBytesOptionAndStats(t *testing.T) {
	opts := smallOptions()
	store, events := loadWiki(t, opts, 600)
	lo, hi, _ := store.TimeRange()
	mid := (lo + hi) / 2

	// Two identical snapshots: the second must be served mostly from the
	// decoded-delta cache, with fewer KV reads.
	store.Cluster().ResetMetrics()
	g1, err := store.Snapshot(mid)
	if err != nil {
		t.Fatal(err)
	}
	cold := store.Cluster().Metrics().Reads
	if stCold, err := store.Stats(); err != nil {
		t.Fatal(err)
	} else if stCold.StoreMetrics.RoundTrips == 0 {
		t.Fatal("round-trip counter not surfaced through Stats")
	}
	store.Cluster().ResetMetrics()
	g2, err := store.Snapshot(mid)
	if err != nil {
		t.Fatal(err)
	}
	warm := store.Cluster().Metrics().Reads
	if !g1.Equal(g2) {
		t.Fatal("warm snapshot differs from cold")
	}
	if warm >= cold {
		t.Fatalf("warm snapshot reads (%d) not below cold (%d)", warm, cold)
	}
	st, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits == 0 || st.Cache.MaxBytes != 64<<20 {
		t.Fatalf("cache stats = %+v; want hits > 0 and the 64MiB default budget", st.Cache)
	}

	// CacheBytes < 0 disables caching entirely.
	off, err := Open(Options{Machines: 2, CacheBytes: -1,
		TimespanEvents: 2000, EventlistSize: 400, HorizontalPartitions: 2, PartitionSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := off.Load(events); err != nil {
		t.Fatal(err)
	}
	if _, err := off.Snapshot(mid); err != nil {
		t.Fatal(err)
	}
	if _, err := off.Snapshot(mid); err != nil {
		t.Fatal(err)
	}
	stOff, err := off.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stOff.Cache.Hits != 0 || stOff.Cache.Misses != 0 || stOff.Cache.MaxBytes != 0 {
		t.Fatalf("disabled cache recorded traffic: %+v", stOff.Cache)
	}
}

func TestCacheBytesSurvivesReattach(t *testing.T) {
	dir := t.TempDir()
	opts := smallOptions()
	opts.DataDir = filepath.Join(dir, "store")
	store, _ := loadWiki(t, opts, 400)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// Reattach with an explicit budget: the persisted construction config
	// is adopted, but CacheBytes stays a property of this process.
	re, err := Open(Options{DataDir: opts.DataDir, CacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Loaded() {
		t.Fatal("reattach lost the index")
	}
	lo, hi, _ := re.TimeRange()
	if _, err := re.Snapshot((lo + hi) / 2); err != nil {
		t.Fatal(err)
	}
	st, err := re.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.MaxBytes != 4<<20 {
		t.Fatalf("reattached cache budget = %d, want the requested 4MiB", st.Cache.MaxBytes)
	}
}

// TestTieredDurableRoundTrip is the acceptance test for the tiered
// engine: queries over a tiered store match the in-memory oracle, hot
// hits are visible in the per-tier counters, and a close/reopen cycle
// (which drops the in-memory copy) loses nothing.
func TestTieredDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	events := workload.Wikipedia(workload.WikiConfig{Nodes: 400, EdgesPerNode: 3, Seed: 13})

	opts := smallOptions()
	opts.DataDir = dir
	opts.Engine = EngineTiered
	opts.HotBytes = 64 << 10 // small: most of the index lives only on disk
	store, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if store.Engine() != EngineTiered {
		t.Fatalf("engine = %q, want tiered", store.Engine())
	}
	if err := store.Load(events); err != nil {
		t.Fatal(err)
	}
	lo, hi, err := store.TimeRange()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []Time{lo, (lo + hi) / 2, hi} {
		g, err := store.Snapshot(tt)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(mustGraph(events, tt)) {
			t.Fatalf("tiered snapshot@%d mismatch", tt)
		}
	}
	st, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.StoreMetrics.TierHotReads == 0 && st.StoreMetrics.TierColdReads == 0 {
		t.Fatal("tiered store reported no per-tier reads")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Reattach with zero options: the tiered engine is adopted from
	// cluster.json.
	reopened, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Engine() != EngineTiered {
		t.Fatalf("reopened engine = %q, want tiered", reopened.Engine())
	}
	if !reopened.Loaded() {
		t.Fatal("reopened tiered store must reattach without Load")
	}
	g, err := reopened.Snapshot(hi)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(mustGraph(events, hi)) {
		t.Fatal("tiered snapshot mismatch after reopen")
	}
	// A conflicting explicit engine is rejected.
	bad := Options{DataDir: dir, Engine: EngineDisk}
	if _, err := Open(bad); err == nil {
		t.Fatal("conflicting engine must be rejected")
	}
}

// TestTieredUnboundedHotTierServesFromMemory: with a hot tier large
// enough for the whole index, snapshot and node queries are answered
// without a single cold-tier read — hot hits skip the disk entirely.
func TestTieredUnboundedHotTierServesFromMemory(t *testing.T) {
	opts := smallOptions()
	opts.DataDir = t.TempDir()
	opts.Engine = EngineTiered
	opts.HotBytes = 1 << 40
	opts.CacheBytes = -1 // measure the tiers, not the decoded-delta cache
	store, events := loadWiki(t, opts, 400)
	defer store.Close()
	lo, hi, err := store.TimeRange()
	if err != nil {
		t.Fatal(err)
	}
	before, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []Time{(lo + hi) / 2, hi} {
		g, err := store.Snapshot(tt)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(mustGraph(events, tt)) {
			t.Fatalf("snapshot@%d mismatch", tt)
		}
	}
	for id := NodeID(0); id < 24; id++ {
		if _, err := store.Node(id, hi); err != nil {
			t.Fatal(err)
		}
	}
	after, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if hot := after.StoreMetrics.TierHotReads - before.StoreMetrics.TierHotReads; hot == 0 {
		t.Fatal("probes recorded no hot-tier reads")
	}
	if cold := after.StoreMetrics.TierColdReads - before.StoreMetrics.TierColdReads; cold != 0 {
		t.Fatalf("unbounded hot tier still issued %d cold reads", cold)
	}
}

func TestEngineOptionValidation(t *testing.T) {
	if _, err := Open(Options{Engine: "bogus"}); err == nil {
		t.Fatal("unknown engine must fail")
	}
	if _, err := Open(Options{Engine: EngineTiered}); err == nil {
		t.Fatal("tiered without DataDir must fail")
	}
	if _, err := Open(Options{Engine: EngineDisk}); err == nil {
		t.Fatal("disk without DataDir must fail")
	}
	if _, err := Open(Options{Engine: EngineMemory, DataDir: t.TempDir()}); err == nil {
		t.Fatal("memory engine with DataDir must fail")
	}
}

// TestBackupRoundTrip: a backup of a quiesced store opens as a store of
// its own, answers identically, and is isolated from later writes to
// the original. Exercised for both disk engines.
func TestBackupRoundTrip(t *testing.T) {
	for _, engine := range []StorageEngine{EngineDisk, EngineTiered} {
		t.Run(string(engine), func(t *testing.T) {
			dir := t.TempDir()
			events := workload.Wikipedia(workload.WikiConfig{Nodes: 300, EdgesPerNode: 3, Seed: 17})
			opts := smallOptions()
			opts.DataDir = dir
			opts.Engine = engine
			if engine == EngineTiered {
				opts.HotBytes = 32 << 10
			}
			store, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if err := store.Load(events); err != nil {
				t.Fatal(err)
			}
			lo, hi, err := store.TimeRange()
			if err != nil {
				t.Fatal(err)
			}

			backupDir := filepath.Join(t.TempDir(), "backup")
			if err := store.Backup(backupDir); err != nil {
				t.Fatal(err)
			}
			if err := store.Backup(backupDir); err == nil {
				t.Fatal("backup into an existing store must fail")
			}
			// Mutate the original after the backup.
			extra := []Event{{Time: hi + 10, Kind: AddNode, Node: 777_001}}
			if err := store.Append(extra); err != nil {
				t.Fatal(err)
			}

			copyStore, err := Open(Options{DataDir: backupDir})
			if err != nil {
				t.Fatal(err)
			}
			defer copyStore.Close()
			if copyStore.Engine() != engine {
				t.Fatalf("backup engine = %q, want %q", copyStore.Engine(), engine)
			}
			if !copyStore.Loaded() {
				t.Fatal("backup must reattach to the copied index")
			}
			for _, tt := range []Time{lo, (lo + hi) / 2, hi} {
				g, err := copyStore.Snapshot(tt)
				if err != nil {
					t.Fatal(err)
				}
				if !g.Equal(mustGraph(events, tt)) {
					t.Fatalf("backup snapshot@%d mismatch", tt)
				}
			}
			if n, err := copyStore.Node(777_001, hi+10); err != nil || n != nil {
				t.Fatalf("post-backup append leaked into the backup (n=%v err=%v)", n, err)
			}
		})
	}
}

func TestBackupRequiresDurableStore(t *testing.T) {
	store, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Backup(t.TempDir()); err == nil {
		t.Fatal("backup of an in-memory store must fail")
	}
}

// TestSecondOpenOfLiveDataDirRejected: two live handles over one disk
// DataDir would append to the same segment files and lose each other's
// acknowledged writes, so the second Open fails and the first handle
// keeps serving its data; after Close the directory reopens.
func TestSecondOpenOfLiveDataDirRejected(t *testing.T) {
	dir := t.TempDir()
	opts := smallOptions()
	opts.DataDir = dir
	store, events := loadWiki(t, opts, 300)
	if _, err := Open(Options{DataDir: dir}); err == nil {
		t.Fatal("second handle on a live disk DataDir must fail")
	}
	_, hi, err := store.TimeRange()
	if err != nil {
		t.Fatal(err)
	}
	g, err := store.Snapshot(hi)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(mustGraph(events, hi)) {
		t.Fatal("first handle's data changed after a refused second Open")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if g, err := reopened.Snapshot(hi); err != nil || !g.Equal(mustGraph(events, hi)) {
		t.Fatalf("reopened snapshot wrong (err %v)", err)
	}
}

func TestTieredDataDirSingleHandle(t *testing.T) {
	dir := t.TempDir()
	opts := smallOptions()
	opts.DataDir = dir
	opts.Engine = EngineTiered
	store, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := Open(Options{DataDir: dir}); err == nil {
		t.Fatal("second handle on a live tiered DataDir must fail")
	}
}

// TestWarmOnOpenOption exercises the restart path end to end: a tiered
// store whose index went cold is reopened twice — with a one-byte memory
// budget, which keeps nothing in memory, and with a large one — and only
// the budgeted handle serves the post-restart snapshot without cold
// reads, because the log replay in Open refilled its memory.
func TestWarmOnOpenOption(t *testing.T) {
	dir := t.TempDir()
	events := workload.Wikipedia(workload.WikiConfig{Nodes: 400, EdgesPerNode: 3, Seed: 17})

	opts := smallOptions()
	opts.DataDir = dir
	opts.Engine = EngineTiered
	opts.HotBytes = 1 // nothing fits in memory: the whole index is cold
	store, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Load(events); err != nil {
		t.Fatal(err)
	}
	_, hi, err := store.TimeRange()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	coldReads := func(hotBytes int64) int64 {
		t.Helper()
		reopen := smallOptions()
		reopen.DataDir = dir
		reopen.HotBytes = hotBytes
		reopen.CacheBytes = -1 // measure the tiers, not the decoded-delta cache
		s, err := Open(reopen)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		before, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Snapshot(hi); err != nil {
			t.Fatal(err)
		}
		after, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return after.StoreMetrics.TierColdReads - before.StoreMetrics.TierColdReads
	}
	if coldReads(1) == 0 {
		t.Fatal("a one-byte budget served the snapshot without cold reads; the index never went cold")
	}
	if got := coldReads(256 << 20); got != 0 {
		t.Fatalf("reopen with a memory budget still paid %d cold reads on the recent snapshot", got)
	}
}

// TestPlanTraceSurface pins the public tracing surface: TracePlans
// collects one record per retrieval into Store.PlanTraces/Stats, and a
// per-call FetchOptions.Trace fills the caller's Trace with the
// plan/cache/read breakdown.
func TestPlanTraceSurface(t *testing.T) {
	opts := smallOptions()
	opts.TracePlans = true
	store, _ := loadWiki(t, opts, 400)
	lo, hi, _ := store.TimeRange()
	mid := (lo + hi) / 2

	if _, err := store.Snapshot(mid); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Snapshot(mid); err != nil {
		t.Fatal(err)
	}
	trs := store.PlanTraces()
	if len(trs) != 2 {
		t.Fatalf("PlanTraces = %d records, want 2", len(trs))
	}
	cold, warm := trs[0], trs[1]
	if cold.Op != "snapshot" || cold.KVReads == 0 {
		t.Fatalf("cold trace = %+v", cold)
	}
	if warm.KVReads >= cold.KVReads || warm.CacheHits+warm.NegativeHits == 0 {
		t.Fatalf("warm trace did not show the cache at work: %+v", warm)
	}
	st, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Traces) != len(trs) {
		t.Fatalf("Stats.Traces = %d records, want %d", len(st.Traces), len(trs))
	}

	// Per-call tracing works without the store-side ring.
	plain, _ := loadWiki(t, smallOptions(), 400)
	tr := &Trace{}
	if _, err := plain.SnapshotWith(mid, &FetchOptions{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	rec := tr.Record()
	if rec.Op != "snapshot" || rec.Execs != 1 || rec.Groups == 0 {
		t.Fatalf("per-call trace = %+v", rec)
	}
	if len(plain.PlanTraces()) != 0 {
		t.Fatal("per-call tracing leaked into the store-side ring")
	}
	if rec.String() == "" {
		t.Fatal("TraceRecord.String returned nothing")
	}
}
