package baseline

import (
	"fmt"
	"math/rand"
	"testing"

	"hgs/internal/core"
	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/temporal"
)

// genHistory mirrors the core test generator: strictly increasing times,
// structural and attribute churn including deletions.
func genHistory(seed int64, n, idSpace int) []graph.Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]graph.Event, 0, n)
	for i := 0; i < n; i++ {
		e := graph.Event{Time: temporal.Time(10 * (i + 1))}
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
		default:
			e.Kind, e.Node, e.Other, e.Key, e.Value = graph.SetEdgeAttr, u, v, "w", fmt.Sprintf("%d", rng.Intn(9))
		}
		evs = append(evs, e)
	}
	return evs
}

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

func newStore() *kvstore.Cluster {
	return kvstore.NewCluster(kvstore.Config{Machines: 2, Replication: 1})
}

func allIndexes(t *testing.T) map[string]Index {
	t.Helper()
	tgiCfg := core.DefaultConfig()
	tgiCfg.TimespanEvents = 150
	tgiCfg.EventlistSize = 30
	tgiCfg.PartitionSize = 10
	tgiCfg.HorizontalPartitions = 2
	return map[string]Index{
		"log":          NewLogIndex(newStore(), 30),
		"copy":         NewCopyIndex(newStore()),
		"copy+log":     NewCopyLogIndex(newStore(), 60, 30),
		"node-centric": NewNodeCentricIndex(newStore(), 30),
		"deltagraph":   NewDeltaGraph(newStore(), 30),
		"tgi":          NewTGIAdapter("tgi", newStore(), tgiCfg),
	}
}

func TestAllIndexesSnapshotAgainstOracle(t *testing.T) {
	events := genHistory(21, 300, 25)
	for name, ix := range allIndexes(t) {
		t.Run(name, func(t *testing.T) {
			if err := ix.Build(events); err != nil {
				t.Fatalf("Build: %v", err)
			}
			for _, tt := range []temporal.Time{0, 155, 1000, 1505, 2250, 3000, 5000} {
				got, err := ix.Snapshot(tt)
				if err != nil {
					t.Fatalf("Snapshot(%d): %v", tt, err)
				}
				want := oracle(events, tt)
				if !got.Equal(want) {
					t.Fatalf("snapshot at %d differs: got %v want %v", tt, got, want)
				}
			}
		})
	}
}

func TestAllIndexesStaticNodeAgainstOracle(t *testing.T) {
	events := genHistory(22, 300, 25)
	for name, ix := range allIndexes(t) {
		t.Run(name, func(t *testing.T) {
			if err := ix.Build(events); err != nil {
				t.Fatalf("Build: %v", err)
			}
			for _, tt := range []temporal.Time{800, 2100, 3000} {
				want := oracle(events, tt)
				for id := graph.NodeID(0); id < 25; id += 5 {
					got, err := ix.StaticNode(id, tt)
					if err != nil {
						t.Fatal(err)
					}
					wantNS := want.Node(id)
					if (got == nil) != (wantNS == nil) {
						t.Fatalf("node %d at %d: presence mismatch", id, tt)
					}
					if got != nil && !got.Equal(wantNS) {
						t.Fatalf("node %d at %d: state mismatch", id, tt)
					}
				}
			}
		})
	}
}

func TestAllIndexesNodeVersionsReplay(t *testing.T) {
	events := genHistory(23, 300, 25)
	ts, te := temporal.Time(400), temporal.Time(2600)
	for name, ix := range allIndexes(t) {
		t.Run(name, func(t *testing.T) {
			if err := ix.Build(events); err != nil {
				t.Fatalf("Build: %v", err)
			}
			for id := graph.NodeID(0); id < 25; id += 6 {
				h, err := ix.NodeVersions(id, ts, te)
				if err != nil {
					t.Fatal(err)
				}
				// Initial must match the oracle at ts.
				wantInit := oracle(events, ts).Node(id)
				if (h.Initial == nil) != (wantInit == nil) || (h.Initial != nil && !h.Initial.Equal(wantInit)) {
					t.Fatalf("node %d: initial mismatch", id)
				}
				// Replaying the history must land on the oracle state at
				// probe times (event sets differ across designs — Copy
				// synthesizes diffs — but the reconstructed states must
				// agree).
				for _, tt := range []temporal.Time{900, 1700, 2500} {
					g := graph.New()
					if h.Initial != nil {
						g.PutNode(h.Initial.Clone())
					}
					for _, e := range h.Events {
						if e.Time > tt {
							break
						}
						g.Apply(e)
					}
					got := g.Node(id)
					want := oracle(events, tt).Node(id)
					if (got == nil) != (want == nil) {
						t.Fatalf("node %d at %d: presence mismatch (%s)", id, tt, name)
					}
					if got != nil && !got.Equal(want) {
						t.Fatalf("node %d at %d: state mismatch (%s)\n got %+v\nwant %+v", id, tt, name, got, want)
					}
				}
			}
		})
	}
}

func TestStorageOrdering(t *testing.T) {
	// Table 1, Size column: Copy >> Copy+Log > Node-centric ≈ 2·Log > Log.
	events := genHistory(24, 400, 30)
	sizes := make(map[string]int64)
	for name, ix := range allIndexes(t) {
		if err := ix.Build(events); err != nil {
			t.Fatalf("%s build: %v", name, err)
		}
		sizes[name] = ix.StorageBytes()
		if sizes[name] <= 0 {
			t.Fatalf("%s reports no storage", name)
		}
	}
	if !(sizes["copy"] > sizes["copy+log"]) {
		t.Errorf("Copy (%d) should exceed Copy+Log (%d)", sizes["copy"], sizes["copy+log"])
	}
	if !(sizes["copy+log"] > sizes["log"]) {
		t.Errorf("Copy+Log (%d) should exceed Log (%d)", sizes["copy+log"], sizes["log"])
	}
	if !(sizes["node-centric"] > sizes["log"]) {
		t.Errorf("Node-centric (%d) should exceed Log (%d) via edge replication", sizes["node-centric"], sizes["log"])
	}
	if !(sizes["copy"] > sizes["tgi"]) {
		t.Errorf("Copy (%d) should exceed TGI (%d)", sizes["copy"], sizes["tgi"])
	}
}

func TestReadCountShape(t *testing.T) {
	// The qualitative access-cost shape of Table 1, measured in store
	// reads: for snapshots, Log reads much more than Copy+Log; for node
	// versions, node-centric reads far less than Copy+Log.
	events := genHistory(25, 600, 40)
	logIx := NewLogIndex(newStore(), 30)
	clIx := NewCopyLogIndex(newStore(), 120, 30)
	ncIx := NewNodeCentricIndex(newStore(), 30)
	for _, ix := range []Index{logIx, clIx, ncIx} {
		if err := ix.Build(events); err != nil {
			t.Fatal(err)
		}
	}
	readsOf := func(st *kvstore.Cluster, f func()) int64 {
		before := st.Metrics().Reads
		f()
		return st.Metrics().Reads - before
	}
	lateTime := temporal.Time(5800)
	logReads := readsOf(logIx.store, func() { logIx.Snapshot(lateTime) })
	clReads := readsOf(clIx.store, func() { clIx.Snapshot(lateTime) })
	if logReads <= clReads {
		t.Errorf("late snapshot: Log reads (%d) should exceed Copy+Log reads (%d)", logReads, clReads)
	}
	ncReads := readsOf(ncIx.store, func() { ncIx.NodeVersions(1, 0, 6000) })
	clvReads := readsOf(clIx.store, func() { clIx.NodeVersions(1, 0, 6000) })
	if ncReads >= clvReads {
		t.Errorf("node versions: node-centric reads (%d) should be below Copy+Log reads (%d)", ncReads, clvReads)
	}
}

func TestCostTableShapes(t *testing.T) {
	p := DeriveCostParams(1_000_000, 50_000, 1000, 2, 500)
	rows := CostTable(p)
	if len(rows) != 6 {
		t.Fatalf("want 6 rows, got %d", len(rows))
	}
	byName := map[string]CostRow{}
	for _, r := range rows {
		byName[r.Index] = r
	}
	// Size: Log < DeltaGraph < TGI << Copy; Copy+Log in between.
	if !(byName["Log"].Size < byName["DeltaGraph"].Size &&
		byName["DeltaGraph"].Size < byName["TGI"].Size &&
		byName["TGI"].Size < byName["Copy"].Size) {
		t.Errorf("size ordering wrong: %+v", byName)
	}
	// Snapshot fetches: TGI == DeltaGraph << Log.
	if byName["TGI"].Snapshot.Fetches != byName["DeltaGraph"].Snapshot.Fetches {
		t.Error("TGI and DeltaGraph snapshot fetch counts should match")
	}
	if byName["Log"].Snapshot.Work <= byName["TGI"].Snapshot.Work {
		t.Error("Log snapshot work should exceed TGI")
	}
	// Static vertex: TGI beats DeltaGraph by the partition factor.
	if byName["TGI"].StaticVertex.Work >= byName["DeltaGraph"].StaticVertex.Work {
		t.Error("TGI static vertex work should be below DeltaGraph (partitioned read)")
	}
	// Vertex versions: TGI ≈ |V| scale, far below Copy+Log's |G|.
	if byName["TGI"].VertexVersions.Work >= byName["Copy+Log"].VertexVersions.Work {
		t.Error("TGI vertex versions work should be below Copy+Log")
	}
}

func TestCostParamsDerivation(t *testing.T) {
	p := DeriveCostParams(1000, 100, 100, 2, 10)
	if p.TreeHeight < 2 {
		t.Errorf("tree height %v too small for 11 leaves", p.TreeHeight)
	}
	if p.Partitions != 10 {
		t.Errorf("partitions = %v, want 10", p.Partitions)
	}
	if p.Changes != 1000 || p.Nodes != 100 {
		t.Error("basic params not copied")
	}
}

func TestQueryCostString(t *testing.T) {
	s := QueryCost{Work: 1234, Fetches: 7}.String()
	if s == "" {
		t.Fatal("empty cost string")
	}
}
