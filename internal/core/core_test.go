package core

import (
	"fmt"
	"math/rand"
	"testing"

	"hgs/internal/delta"
	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/partition"
	"hgs/internal/temporal"
)

// genHistory produces a chronological event stream with strictly
// increasing timestamps over a small node-id space: node/edge structure
// and attribute churn, including deletions.
func genHistory(seed int64, n, idSpace int) []graph.Event {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New() // shadow state so deletions target real entities
	evs := make([]graph.Event, 0, n)
	for i := 0; i < n; i++ {
		e := graph.Event{Time: temporal.Time(10 * (i + 1))} // strictly increasing
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
			e.Kind, e.Node, e.Key, e.Value = graph.SetNodeAttr, u, "label", fmt.Sprintf("L%d", rng.Intn(4))
		case r < 19:
			e.Kind, e.Node, e.Other, e.Key, e.Value = graph.SetEdgeAttr, u, v, "w", fmt.Sprintf("%d", rng.Intn(9))
		default:
			e.Kind, e.Node, e.Key = graph.DelNodeAttr, u, "label"
		}
		g.Apply(e)
		evs = append(evs, e)
	}
	return evs
}

// oracle replays the raw history up to and including time tt.
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

func smallConfig() Config {
	c := DefaultConfig()
	c.TimespanEvents = 120
	c.EventlistSize = 25
	c.Arity = 2
	c.HorizontalPartitions = 3
	c.PartitionSize = 8
	c.FetchClients = 3
	return c
}

func buildSmall(t *testing.T, cfg Config, events []graph.Event) *TGI {
	t.Helper()
	store := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 1})
	tgi, err := Build(store, cfg, events)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tgi
}

// configsUnderTest exercises the parameter space: partitioning strategy,
// replication, arity, compression.
func configsUnderTest() map[string]Config {
	base := smallConfig()
	random := base
	locality := base
	locality.Partitioning = partition.Locality
	replicated := locality
	replicated.Replicate1Hop = true
	compressed := base
	compressed.Compress = true
	arity3 := base
	arity3.Arity = 3
	bigLists := base
	bigLists.EventlistSize = 60
	monolithic := DeltaGraphConfig()
	monolithic.TimespanEvents = 120
	monolithic.EventlistSize = 25
	return map[string]Config{
		"random":     random,
		"locality":   locality,
		"replicated": replicated,
		"compressed": compressed,
		"arity3":     arity3,
		"bigLists":   bigLists,
		"deltagraph": monolithic,
	}
}

func TestSnapshotMatchesOracle(t *testing.T) {
	events := genHistory(1, 400, 40)
	for name, cfg := range configsUnderTest() {
		t.Run(name, func(t *testing.T) {
			tgi := buildSmall(t, cfg, events)
			// Probe: before history, at eventlist boundaries, mid-list,
			// at timespan boundaries, after history.
			probes := []temporal.Time{0, 5, 10, 250, 255, 1200, 1201, 1205, 2400, 2405, 3999, 4000, 9999}
			for _, tt := range probes {
				want := oracle(events, tt)
				got, err := tgi.GetSnapshot(tt, nil)
				if err != nil {
					t.Fatalf("GetSnapshot(%d): %v", tt, err)
				}
				if !got.Equal(want) {
					t.Fatalf("snapshot at %d differs: got %v want %v", tt, got, want)
				}
			}
		})
	}
}

func TestSnapshotEveryEventTime(t *testing.T) {
	// Exhaustive sweep on one config: snapshot at every event time and
	// between events.
	events := genHistory(2, 300, 25)
	tgi := buildSmall(t, smallConfig(), events)
	for i, e := range events {
		if i%7 != 0 { // sample to keep runtime sane
			continue
		}
		for _, tt := range []temporal.Time{e.Time, e.Time + 5} {
			want := oracle(events, tt)
			got, err := tgi.GetSnapshot(tt, nil)
			if err != nil {
				t.Fatalf("GetSnapshot(%d): %v", tt, err)
			}
			if !got.Equal(want) {
				t.Fatalf("snapshot at %d (event %d) differs", tt, i)
			}
		}
	}
}

func TestGetNodeAtMatchesOracle(t *testing.T) {
	events := genHistory(3, 400, 30)
	for name, cfg := range configsUnderTest() {
		t.Run(name, func(t *testing.T) {
			tgi := buildSmall(t, cfg, events)
			for _, tt := range []temporal.Time{0, 700, 1201, 2000, 3500, 4000} {
				want := oracle(events, tt)
				for id := graph.NodeID(0); id < 30; id += 3 {
					got, err := tgi.GetNodeAt(id, tt, nil)
					if err != nil {
						t.Fatalf("GetNodeAt(%d,%d): %v", id, tt, err)
					}
					wantNS := want.Node(id)
					if (got == nil) != (wantNS == nil) {
						t.Fatalf("node %d at %d: presence mismatch (got %v, want %v)", id, tt, got, wantNS)
					}
					if got != nil && !got.Equal(wantNS) {
						t.Fatalf("node %d at %d: state mismatch\n got %+v\nwant %+v", id, tt, got, wantNS)
					}
				}
			}
		})
	}
}

func TestNodeHistoryMatchesOracle(t *testing.T) {
	events := genHistory(4, 400, 30)
	for name, cfg := range configsUnderTest() {
		t.Run(name, func(t *testing.T) {
			tgi := buildSmall(t, cfg, events)
			ts, te := temporal.Time(500), temporal.Time(3200)
			for id := graph.NodeID(0); id < 30; id += 4 {
				h, err := tgi.GetNodeHistory(id, ts, te, nil)
				if err != nil {
					t.Fatalf("GetNodeHistory(%d): %v", id, err)
				}
				// Initial state matches oracle at ts.
				wantInit := oracle(events, ts).Node(id)
				if (h.Initial == nil) != (wantInit == nil) || (h.Initial != nil && !h.Initial.Equal(wantInit)) {
					t.Fatalf("node %d initial state mismatch", id)
				}
				// Replayed state matches oracle at probe times.
				for _, tt := range []temporal.Time{700, 1500, 2799, 3100} {
					got := h.StateAt(tt)
					want := oracle(events, tt).Node(id)
					if (got == nil) != (want == nil) {
						t.Fatalf("node %d StateAt(%d): presence mismatch", id, tt)
					}
					if got != nil && !got.Equal(want) {
						t.Fatalf("node %d StateAt(%d): state mismatch\n got %+v\nwant %+v", id, tt, got, want)
					}
				}
			}
		})
	}
}

func TestNodeHistoryVersions(t *testing.T) {
	events := []graph.Event{
		{Time: 10, Kind: graph.AddNode, Node: 1},
		{Time: 20, Kind: graph.SetNodeAttr, Node: 1, Key: "k", Value: "a"},
		{Time: 30, Kind: graph.AddNode, Node: 2},
		{Time: 40, Kind: graph.SetNodeAttr, Node: 1, Key: "k", Value: "b"},
		{Time: 50, Kind: graph.AddEdge, Node: 1, Other: 2},
	}
	tgi := buildSmall(t, smallConfig(), events)
	h, err := tgi.GetNodeHistory(1, 0, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	vs := h.Versions()
	// States: created(10..20), k=a(20..40), k=b(40..50), +edge(50..100).
	if len(vs) != 4 {
		t.Fatalf("got %d versions, want 4: %+v", len(vs), vs)
	}
	if vs[1].State.Attrs["k"] != "a" || vs[2].State.Attrs["k"] != "b" {
		t.Fatalf("version states wrong")
	}
	if vs[3].Valid.Start != 50 || vs[3].Valid.End != 100 {
		t.Fatalf("last version interval wrong: %v", vs[3].Valid)
	}
	if h.VersionCount() != 4 {
		t.Fatalf("VersionCount = %d, want 4 events", h.VersionCount())
	}
}

// TestNodeHistoryStateAtOwnsState checks that StateAt hands out a state
// the caller may mutate: Initial and later StateAt calls are unaffected.
func TestNodeHistoryStateAtOwnsState(t *testing.T) {
	initial := &graph.NodeState{ID: 1, Attrs: graph.Attrs{"k": "a"},
		Edges: map[graph.EdgeKey]*graph.EdgeState{{Other: 2, Out: true}: {Attrs: graph.Attrs{"w": "1"}}}}
	h := &NodeHistory{ID: 1, Interval: temporal.NewInterval(0, 100), Initial: initial.Clone(),
		Events: []graph.Event{
			{Time: 10, Kind: graph.SetNodeAttr, Node: 1, Key: "j", Value: "b"},
			{Time: 20, Kind: graph.AddEdge, Node: 3, Other: 1},
		}}
	for _, tt := range []temporal.Time{0, 50} {
		ns := h.StateAt(tt)
		want := ns.Clone()
		ns.Attrs["k"] = "scribbled"
		for _, es := range ns.Edges {
			es.Attrs = graph.Attrs{"w": "scribbled"}
		}
		delete(ns.Edges, graph.EdgeKey{Other: 2, Out: true})
		if !h.Initial.Equal(initial) {
			t.Fatalf("t=%d: mutating the state changed Initial: %+v", tt, h.Initial)
		}
		if again := h.StateAt(tt); !again.Equal(want) {
			t.Fatalf("t=%d: second StateAt %+v, want %+v", tt, again, want)
		}
	}
}

func TestChangeTimes(t *testing.T) {
	events := genHistory(5, 300, 20)
	tgi := buildSmall(t, smallConfig(), events)
	for id := graph.NodeID(0); id < 20; id += 5 {
		got, err := tgi.ChangeTimes(id, 0, 10000, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Oracle: times of events that touch id, after expansion of
		// RemoveNode into edge removals.
		want := map[temporal.Time]bool{}
		g := graph.New()
		for _, e := range events {
			for _, x := range expandEvent(g, e) {
				if x.Touches(id) {
					want[x.Time] = true
				}
				g.Apply(x)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("node %d: %d change times, want %d", id, len(got), len(want))
		}
		for _, tt := range got {
			if !want[tt] {
				t.Fatalf("node %d: unexpected change time %d", id, tt)
			}
		}
	}
}

func TestKHopBothAlgorithmsAgree(t *testing.T) {
	events := genHistory(6, 400, 30)
	for name, cfg := range configsUnderTest() {
		t.Run(name, func(t *testing.T) {
			tgi := buildSmall(t, cfg, events)
			for _, tt := range []temporal.Time{800, 2000, 4000} {
				for id := graph.NodeID(0); id < 30; id += 6 {
					for k := 1; k <= 2; k++ {
						viaSnap, err := tgi.GetKHopViaSnapshot(id, k, tt, nil)
						if err != nil {
							t.Fatal(err)
						}
						viaExp, err := tgi.GetKHopNeighborhood(id, k, tt, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !viaExp.Equal(viaSnap) {
							t.Fatalf("k-hop(%d,k=%d,t=%d) mismatch: expansion %v vs snapshot %v",
								id, k, tt, viaExp, viaSnap)
						}
					}
				}
			}
		})
	}
}

func TestKHopHistoryMatchesOracle(t *testing.T) {
	events := genHistory(7, 350, 25)
	for _, name := range []string{"random", "replicated"} {
		cfg := configsUnderTest()[name]
		t.Run(name, func(t *testing.T) {
			tgi := buildSmall(t, cfg, events)
			ts, te := temporal.Time(600), temporal.Time(3000)
			for id := graph.NodeID(0); id < 25; id += 5 {
				sh, err := tgi.GetKHopHistory(id, 1, ts, te, nil)
				if err != nil {
					t.Fatal(err)
				}
				members := sh.Members
				for _, tt := range []temporal.Time{900, 1700, 2500} {
					got := sh.StateAt(tt)
					want := oracle(events, tt).Subgraph(members)
					if !got.Equal(want) {
						t.Fatalf("1-hop history of %d at %d mismatch:\n got %v\nwant %v", id, tt, got, want)
					}
				}
			}
		})
	}
}

func TestAppendEquivalentToFullBuild(t *testing.T) {
	events := genHistory(8, 400, 30)
	cfg := smallConfig()

	full := buildSmall(t, cfg, events)

	// Build on a prefix, then append the rest in two batches — the second
	// lands mid-timespan to exercise the partial-span rebuild.
	store := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 1})
	inc, err := Build(store, cfg, events[:150])
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Append(events[150:290]); err != nil {
		t.Fatalf("Append 1: %v", err)
	}
	if err := inc.Append(events[290:]); err != nil {
		t.Fatalf("Append 2: %v", err)
	}

	for _, tt := range []temporal.Time{500, 1500, 2500, 3500, 4000} {
		a, err := full.GetSnapshot(tt, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := inc.GetSnapshot(tt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("append-built index disagrees with full build at t=%d", tt)
		}
	}
	// Node histories must agree as well (version chains rebuilt).
	ha, _ := full.GetNodeHistory(3, 0, 4100, nil)
	hb, _ := inc.GetNodeHistory(3, 0, 4100, nil)
	if len(ha.Events) != len(hb.Events) {
		t.Fatalf("history lengths differ: %d vs %d", len(ha.Events), len(hb.Events))
	}
}

func TestAppendValidation(t *testing.T) {
	events := genHistory(9, 100, 20)
	tgi := buildSmall(t, smallConfig(), events)
	if err := tgi.Append(nil); err != nil {
		t.Fatalf("empty append should be a no-op: %v", err)
	}
	// Batch starting before the end of history must be rejected.
	bad := []graph.Event{{Time: events[len(events)-1].Time, Kind: graph.AddNode, Node: 1}}
	if err := tgi.Append(bad); err == nil {
		t.Fatal("append overlapping history must fail")
	}
}

func TestBuildValidation(t *testing.T) {
	store := kvstore.NewCluster(kvstore.Config{Machines: 1, Replication: 1})
	if _, err := Build(store, smallConfig(), nil); err == nil {
		t.Fatal("empty build must fail")
	}
	dup := []graph.Event{
		{Time: 5, Kind: graph.AddNode, Node: 1},
		{Time: 5, Kind: graph.AddNode, Node: 2},
	}
	if _, err := Build(store, smallConfig(), dup); err == nil {
		t.Fatal("non-increasing times must fail")
	}
	cfg := smallConfig()
	cfg.TimespanEvents = 10
	cfg.EventlistSize = 20
	cfg.EventlistSize = 20
	if err := (Config{TimespanEvents: 10, EventlistSize: 20}).Validate(); err == nil {
		t.Fatal("eventlist larger than timespan must fail validation")
	}
}

func TestEmptyIndexErrors(t *testing.T) {
	store := kvstore.NewCluster(kvstore.Config{Machines: 1, Replication: 1})
	tgi := New(store, smallConfig())
	if _, err := tgi.GetSnapshot(100, nil); err == nil {
		t.Fatal("snapshot on empty index must fail")
	}
	if _, err := tgi.Stats(); err == nil {
		t.Fatal("stats on empty index must fail")
	}
}

func TestStatsAndTimeRange(t *testing.T) {
	events := genHistory(10, 300, 25)
	tgi := buildSmall(t, smallConfig(), events)
	st, err := tgi.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 300 || st.Timespans != 3 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.StoredBytes <= 0 {
		t.Fatal("stored bytes should be positive")
	}
	lo, hi, err := tgi.TimeRange()
	if err != nil {
		t.Fatal(err)
	}
	if lo != events[0].Time || hi != events[len(events)-1].Time {
		t.Fatalf("time range = [%d,%d]", lo, hi)
	}
}

func TestParallelFetchClientsProduceSameResult(t *testing.T) {
	events := genHistory(11, 400, 40)
	tgi := buildSmall(t, smallConfig(), events)
	want, err := tgi.GetSnapshot(2000, &FetchOptions{Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{2, 4, 8} {
		got, err := tgi.GetSnapshot(2000, &FetchOptions{Clients: c})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("c=%d produced a different snapshot", c)
		}
	}
}

func TestGetSnapshotsAt(t *testing.T) {
	events := genHistory(12, 200, 20)
	tgi := buildSmall(t, smallConfig(), events)
	times := []temporal.Time{100, 900, 1700}
	gs, err := tgi.GetSnapshotsAt(times, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range times {
		if !gs[i].Equal(oracle(events, tt)) {
			t.Fatalf("multipoint snapshot %d wrong", tt)
		}
	}
}

func TestDeltaTreeShapes(t *testing.T) {
	// Tree invariants across leaf counts and arities: every leaf path
	// starts at the root, dids are in range, and summing the stored
	// deltas along a leaf's path reconstructs the leaf exactly.
	for nLeaves := 1; nLeaves <= 9; nLeaves++ {
		for arity := 2; arity <= 4; arity++ {
			// Leaf i: growing graph with i+2 nodes and a chain of edges.
			leaves := make([]*delta.Delta, nLeaves)
			var gs []*graph.Graph
			g := graph.New()
			for i := 0; i < nLeaves; i++ {
				g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
				gs = append(gs, g.Clone())
				leaves[i] = delta.FromGraph(g)
			}
			stored, paths := buildDeltaTree(leaves, arity)
			if len(paths) != nLeaves {
				t.Fatalf("leaves=%d arity=%d: %d paths", nLeaves, arity, len(paths))
			}
			byDid := make(map[int]*delta.Delta, len(stored))
			for _, sd := range stored {
				byDid[sd.did] = sd.data
			}
			for i, p := range paths {
				if len(p) == 0 || p[0] != stored[0].did {
					t.Fatalf("leaf %d path does not start at root: %v", i, p)
				}
				rec := delta.New()
				for _, did := range p {
					d, ok := byDid[did]
					if !ok {
						t.Fatalf("leaf %d path references unknown did %d", i, did)
					}
					rec.Sum(d)
				}
				if !rec.Materialize().Equal(gs[i]) {
					t.Fatalf("leaves=%d arity=%d: leaf %d reconstruction wrong", nLeaves, arity, i)
				}
			}
		}
	}
}

func TestFetchNodeHistoriesMatchesOracle(t *testing.T) {
	events := genHistory(13, 400, 30)
	tgi := buildSmall(t, smallConfig(), events)
	iv := temporal.NewInterval(600, 3200)
	perSid, err := tgi.FetchNodeHistories(iv, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(perSid) != tgi.Config().HorizontalPartitions {
		t.Fatalf("got %d partitions", len(perSid))
	}
	seen := map[graph.NodeID]*NodeHistory{}
	for sid, hs := range perSid {
		for _, h := range hs {
			if tgi.sidOf(h.ID) != sid {
				t.Fatalf("node %d delivered by wrong partition %d", h.ID, sid)
			}
			if _, dup := seen[h.ID]; dup {
				t.Fatalf("node %d delivered twice", h.ID)
			}
			seen[h.ID] = h
		}
	}
	// Every node alive at start or touched during the window appears, and
	// replaying each history matches the oracle.
	startOracle := oracle(events, iv.Start)
	for id, h := range seen {
		wantInit := startOracle.Node(id)
		if (h.Initial == nil) != (wantInit == nil) || (h.Initial != nil && !h.Initial.Equal(wantInit)) {
			t.Fatalf("node %d: initial mismatch", id)
		}
		for _, tt := range []temporal.Time{900, 2000, 3100} {
			got := h.StateAt(tt)
			want := oracle(events, tt).Node(id)
			if (got == nil) != (want == nil) {
				t.Fatalf("node %d at %d: presence mismatch", id, tt)
			}
			if got != nil && !got.Equal(want) {
				t.Fatalf("node %d at %d: state mismatch", id, tt)
			}
		}
	}
	for _, ns := range startOracle.NodeIDs() {
		if _, ok := seen[ns]; !ok {
			t.Fatalf("node %d alive at start missing from SoN", ns)
		}
	}
	// Selection predicate narrows the result.
	perSid, err = tgi.FetchNodeHistories(iv, func(id graph.NodeID) bool { return id < 5 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, hs := range perSid {
		for _, h := range hs {
			if h.ID >= 5 {
				t.Fatalf("predicate violated: node %d", h.ID)
			}
		}
	}
}

func TestNodeHistoryScanEquivalence(t *testing.T) {
	// The ablation path (no version chains) must return exactly the same
	// history as the VC path.
	events := genHistory(14, 400, 30)
	tgi := buildSmall(t, smallConfig(), events)
	for id := graph.NodeID(0); id < 30; id += 3 {
		a, err := tgi.GetNodeHistory(id, 300, 3700, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tgi.GetNodeHistoryScan(id, 300, 3700, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Events) != len(b.Events) {
			t.Fatalf("node %d: %d events via VC, %d via scan", id, len(a.Events), len(b.Events))
		}
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				t.Fatalf("node %d event %d differs: %v vs %v", id, i, a.Events[i], b.Events[i])
			}
		}
	}
	// And the scan path must cost more store reads (what VCs buy).
	// Each measured pass runs cold: the negative cache would otherwise
	// let whichever pass runs second ride the first one's learned
	// absences, skewing the comparison.
	tgi.fx.Cache().Purge()
	tgi.Store().ResetMetrics()
	tgi.GetNodeHistory(1, 0, 4100, nil)
	vcReads := tgi.Store().Metrics().Reads
	tgi.fx.Cache().Purge()
	tgi.Store().ResetMetrics()
	tgi.GetNodeHistoryScan(1, 0, 4100, nil)
	scanReads := tgi.Store().Metrics().Reads
	if scanReads < vcReads {
		t.Fatalf("scan (%d reads) unexpectedly cheaper than VC (%d reads)", scanReads, vcReads)
	}
}

func TestMultipleAppendsAcrossTimespans(t *testing.T) {
	events := genHistory(15, 600, 30)
	cfg := smallConfig()
	full := buildSmall(t, cfg, events)
	store := kvstore.NewCluster(kvstore.Config{Machines: 2, Replication: 1})
	inc, err := Build(store, cfg, events[:100])
	if err != nil {
		t.Fatal(err)
	}
	for off := 100; off < len(events); off += 130 {
		end := min(off+130, len(events))
		if err := inc.Append(events[off:end]); err != nil {
			t.Fatalf("append at %d: %v", off, err)
		}
	}
	for _, tt := range []temporal.Time{500, 2000, 4500, 6000} {
		a, err := full.GetSnapshot(tt, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := inc.GetSnapshot(tt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("snapshot at %d differs after incremental appends", tt)
		}
	}
	gmA, _ := full.Stats()
	gmB, _ := inc.Stats()
	if gmA.Events != gmB.Events {
		t.Fatalf("event counts differ: %d vs %d", gmA.Events, gmB.Events)
	}
}

func TestLocalityMicroPartitionLookups(t *testing.T) {
	// In locality mode pidOf consults the Micropartitions table; verify
	// lookups resolve and memoize for nodes across timespans.
	events := genHistory(16, 300, 25)
	cfg := smallConfig()
	cfg.Partitioning = partition.Locality
	tgi := buildSmall(t, cfg, events)
	tm, err := tgi.loadTimespanMeta(0)
	if err != nil {
		t.Fatal(err)
	}
	for id := graph.NodeID(0); id < 25; id++ {
		sid := tgi.sidOf(id)
		p1, err := tgi.pidOf(tm, sid, id)
		if err != nil {
			t.Fatal(err)
		}
		before := tgi.Store().Metrics().Reads
		p2, err := tgi.pidOf(tm, sid, id)
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 {
			t.Fatalf("pid not stable for node %d", id)
		}
		if tgi.Store().Metrics().Reads != before {
			t.Fatalf("second pid lookup for node %d hit the store (not memoized)", id)
		}
	}
}

func TestSnapshotBeforeAndAfterHistory(t *testing.T) {
	events := genHistory(17, 150, 15)
	tgi := buildSmall(t, smallConfig(), events)
	g, err := tgi.GetSnapshot(events[0].Time-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 0 {
		t.Fatalf("pre-history snapshot has %d nodes", g.NumNodes())
	}
	g, err = tgi.GetSnapshot(temporal.MaxTime-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(oracle(events, temporal.MaxTime-1)) {
		t.Fatal("post-history snapshot wrong")
	}
}

func TestVersionChainCodecRoundtrip(t *testing.T) {
	entries := []vcEntry{
		{el: 0, times: []temporal.Time{10, 20, 30}},
		{el: 3, times: []temporal.Time{1500}},
		{el: 7, times: []temporal.Time{9000, 9001, 12000, 50000}},
	}
	got, err := decodeVC(encodeVC(entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("entry count %d != %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i].el != entries[i].el || len(got[i].times) != len(entries[i].times) {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, got[i], entries[i])
		}
		for j := range entries[i].times {
			if got[i].times[j] != entries[i].times[j] {
				t.Fatalf("entry %d time %d mismatch", i, j)
			}
		}
	}
	if _, err := decodeVC([]byte{0xFF}); err == nil {
		t.Fatal("corrupt VC must error")
	}
	if got, err := decodeVC(encodeVC(nil)); err != nil || len(got) != 0 {
		t.Fatal("empty VC roundtrip failed")
	}
}

func TestLeafForBoundaries(t *testing.T) {
	tm := &TimespanMeta{LeafTimes: []temporal.Time{0, 100, 200, 300}}
	cases := []struct {
		t    temporal.Time
		leaf int
	}{
		{-5, 0}, {0, 0}, {50, 0}, {100, 1}, {150, 1}, {299, 2}, {300, 3}, {1000, 3},
	}
	for _, c := range cases {
		if got := tm.leafFor(c.t); got != c.leaf {
			t.Errorf("leafFor(%d) = %d, want %d", c.t, got, c.leaf)
		}
	}
}

func TestReplicatedStoreServesTGI(t *testing.T) {
	// Full retrieval correctness on a replicated cluster (r=3).
	events := genHistory(18, 300, 25)
	store := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 3})
	tgi, err := Build(store, smallConfig(), events)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []temporal.Time{500, 1500, 3000} {
		got, err := tgi.GetSnapshot(tt, &FetchOptions{Clients: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(oracle(events, tt)) {
			t.Fatalf("replicated snapshot at %d wrong", tt)
		}
	}
}

func TestGetKHopAtMultipleTimes(t *testing.T) {
	events := genHistory(19, 300, 25)
	tgi := buildSmall(t, smallConfig(), events)
	times := []temporal.Time{600, 1500, 2700}
	gs, err := tgi.GetKHopAt(3, 1, times, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range times {
		want := oracle(events, tt).KHopSubgraph(3, 1)
		if !gs[i].Equal(want) {
			t.Fatalf("k-hop at %d mismatch", tt)
		}
	}
}
