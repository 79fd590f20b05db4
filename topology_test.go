package hgs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hgs/internal/core"
	"hgs/internal/kvstore"
	"hgs/internal/workload"
)

// pathAnswers holds one answer per query path, so a test can compare a
// store under some fault or setting against a healthy baseline.
type pathAnswers struct {
	snap    *Graph
	node    *NodeState
	hist    *NodeHistory
	khop    *Graph
	changes []Time
}

// queryAllPaths runs every query path once: a snapshot and a 2-hop
// neighbourhood at mid, node 5's state at hi, and its history and
// change times over [lo, hi].
func queryAllPaths(t *testing.T, s *Store, lo, mid, hi Time) pathAnswers {
	t.Helper()
	var a pathAnswers
	var err error
	if a.snap, err = s.Snapshot(mid); err != nil {
		t.Fatal(err)
	}
	if a.node, err = s.Node(5, hi); err != nil {
		t.Fatal(err)
	}
	if a.hist, err = s.NodeHistory(5, lo, hi+1); err != nil {
		t.Fatal(err)
	}
	if a.khop, err = s.KHop(5, 2, mid); err != nil {
		t.Fatal(err)
	}
	if a.changes, err = s.ChangeTimes(5, lo, hi+1); err != nil {
		t.Fatal(err)
	}
	return a
}

// requireSameAnswers fails unless got equals want on every query path.
func requireSameAnswers(t *testing.T, what string, got, want pathAnswers) {
	t.Helper()
	if !got.snap.Equal(want.snap) {
		t.Fatalf("%s: snapshot diverged", what)
	}
	if (got.node == nil) != (want.node == nil) || (got.node != nil && !got.node.Equal(want.node)) {
		t.Fatalf("%s: node state diverged", what)
	}
	if !reflect.DeepEqual(got.hist.Events, want.hist.Events) {
		t.Fatalf("%s: history diverged", what)
	}
	if !got.khop.Equal(want.khop) {
		t.Fatalf("%s: k-hop diverged", what)
	}
	if !reflect.DeepEqual(got.changes, want.changes) {
		t.Fatalf("%s: change times diverged", what)
	}
}

// TestDegradedReadsAllQueryPaths is the replication acceptance test:
// with r=2, every query path must answer byte-identically to the
// healthy cluster no matter which single storage node is down, with the
// failovers visible in the metrics — and the counters must stop growing
// once the node is revived.
func TestDegradedReadsAllQueryPaths(t *testing.T) {
	opts := smallOptions()
	opts.Machines = 3
	opts.Replication = 2
	opts.CacheBytes = -1 // force every query to the KV layer
	store, events := loadWiki(t, opts, 700)
	defer store.Close()
	lo, hi, err := store.TimeRange()
	if err != nil {
		t.Fatal(err)
	}
	mid := (lo + hi) / 2

	healthy := queryAllPaths(t, store, lo, mid, hi)
	if !healthy.snap.Equal(mustGraph(events, mid)) {
		t.Fatal("healthy snapshot mismatch")
	}

	for _, down := range store.Cluster().NodeIDs() {
		if err := store.FailStorageNode(down); err != nil {
			t.Fatal(err)
		}
		before := store.Cluster().Metrics()
		requireSameAnswers(t, fmt.Sprintf("node %d down", down), queryAllPaths(t, store, lo, mid, hi), healthy)
		// Batched reads route around the down replica at planning time
		// (DegradedReads counts that), so Failovers — failed visits —
		// need not move on these paths; DegradedReads is the signal.
		m := store.Cluster().Metrics()
		if m.DegradedReads == before.DegradedReads {
			t.Fatalf("node %d down: expected degraded reads, got %+v", down, m)
		}
		info, err := store.Topology()
		if err != nil {
			t.Fatal(err)
		}
		if info.UnderReplicated == 0 {
			t.Fatalf("node %d down: topology reports no under-replicated partitions", down)
		}
		if err := store.ReviveStorageNode(down); err != nil {
			t.Fatal(err)
		}
	}

	before := store.Cluster().Metrics()
	queryAllPaths(t, store, lo, mid, hi)
	if m := store.Cluster().Metrics(); m.DegradedReads != before.DegradedReads || m.Failovers != before.Failovers {
		t.Fatalf("counters kept growing after revive: %+v, before the queries %+v", m, before)
	}
}

// TestQuorumReadsMatchSingleReplica is the consistency acceptance test
// at the graph level: over the same history a ReadQuorum=2 store answers
// every query path exactly as the R=1 store does while visiting more
// replicas, a healthy store repairs nothing while serving and an
// anti-entropy sweep over it streams nothing, and the answers survive a
// replica going down.
func TestQuorumReadsMatchSingleReplica(t *testing.T) {
	opts := smallOptions()
	opts.Machines = 3
	opts.Replication = 3 // every partition on every node: R changes visits, not placement
	opts.CacheBytes = -1 // force every query to the KV layer
	r1, events := loadWiki(t, opts, 700)
	defer r1.Close()
	opts.ReadQuorum = 2
	r2, _ := loadWiki(t, opts, 700)
	defer r2.Close()
	lo, hi, err := r1.TimeRange()
	if err != nil {
		t.Fatal(err)
	}
	mid := (lo + hi) / 2

	// settled waits out the asynchronous read-repair queue, so repair
	// traffic is charged to the queries that caused it.
	settled := func(s *Store) kvstore.Metrics {
		t.Helper()
		for s.Cluster().PendingRepairs() != 0 {
			time.Sleep(time.Millisecond)
		}
		return s.Cluster().Metrics()
	}

	before1 := settled(r1)
	base := queryAllPaths(t, r1, lo, mid, hi)
	if !base.snap.Equal(mustGraph(events, mid)) {
		t.Fatal("R=1 snapshot mismatch")
	}
	trips1 := settled(r1).RoundTrips - before1.RoundTrips

	before2 := settled(r2)
	requireSameAnswers(t, "R=2", queryAllPaths(t, r2, lo, mid, hi), base)
	m2 := settled(r2)
	if repairs := m2.ReadRepairs - before2.ReadRepairs; repairs != 0 {
		t.Fatalf("healthy R=2 store repaired %d rows while serving — replicas diverged", repairs)
	}
	if trips2 := m2.RoundTrips - before2.RoundTrips; trips2 <= trips1 {
		t.Fatalf("R=2 did not visit more replicas: %d round-trips vs %d at R=1", trips2, trips1)
	}
	// An anti-entropy sweep over the consistent store — run while it
	// serves — streams nothing and disturbs no answer.
	var stats RepairStats
	swept := make(chan error, 1)
	go func() {
		var err error
		stats, err = r2.RepairPartitions()
		swept <- err
	}()
	requireSameAnswers(t, "R=2 during anti-entropy", queryAllPaths(t, r2, lo, mid, hi), base)
	if err := <-swept; err != nil {
		t.Fatal(err)
	}
	if stats != (RepairStats{}) {
		t.Fatalf("anti-entropy sweep over a consistent store streamed %+v, want nothing", stats)
	}

	if err := r2.FailStorageNode(0); err != nil {
		t.Fatal(err)
	}
	before2 = settled(r2)
	requireSameAnswers(t, "R=2, node 0 down", queryAllPaths(t, r2, lo, mid, hi), base)
	if m := settled(r2); m.DegradedReads == before2.DegradedReads || m.ReadRepairs != before2.ReadRepairs {
		t.Fatalf("R=2, node 0 down: want degraded reads and no repairs, got %+v after %+v", m, before2)
	}
}

// TestInjectFaultQueriesSurvive drives the per-replica error injector:
// every visit to node 0 errors, yet queries answer correctly via
// failover.
func TestInjectFaultQueriesSurvive(t *testing.T) {
	opts := smallOptions()
	opts.Replication = 2
	store, events := loadWiki(t, opts, 500)
	defer store.Close()
	if err := store.InjectFault(0, &Fault{ErrRate: 1}); err != nil {
		t.Fatal(err)
	}
	_, hi, _ := store.TimeRange()
	g, err := store.Snapshot(hi)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(mustGraph(events, hi)) {
		t.Fatal("snapshot under injected fault diverged")
	}
	if m := store.Cluster().Metrics(); m.Failovers == 0 {
		t.Fatalf("expected failovers under injected fault: %+v", m)
	}
	if err := store.InjectFault(0, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAddNodePersistsTopology grows a durable store and verifies the
// committed topology survives a reopen — and that the relocated
// partitions are found where the new ring says they are.
func TestAddNodePersistsTopology(t *testing.T) {
	dir := t.TempDir()
	opts := smallOptions()
	opts.DataDir = dir
	opts.RebalanceRate = -1
	opts.CacheBytes = -1 // every query below must reach the KV layer
	events := workload.Wikipedia(workload.WikiConfig{Nodes: 500, EdgesPerNode: 3, Seed: 9})
	store, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Load(events); err != nil {
		t.Fatal(err)
	}
	_, hi, _ := store.TimeRange()
	want, err := store.Snapshot(hi)
	if err != nil {
		t.Fatal(err)
	}

	if err := store.AddStorageNode(2); err != nil {
		t.Fatal(err)
	}
	// No query may observe a missing partition while the handoff runs.
	g, err := store.Snapshot(hi)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Fatal("mid-rebalance snapshot diverged")
	}
	if err := store.WaitRebalance(); err != nil {
		t.Fatal(err)
	}
	if g, err = store.Snapshot(hi); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Fatal("post-rebalance snapshot diverged")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	blob, err := os.ReadFile(filepath.Join(dir, "cluster.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cm clusterMeta
	if err := json.Unmarshal(blob, &cm); err != nil {
		t.Fatal(err)
	}
	if cm.Machines != 3 || !reflect.DeepEqual(cm.Nodes, []int{0, 1, 2}) || cm.Format != core.Format {
		t.Fatalf("persisted topology: %+v", cm)
	}

	re, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Cluster().Machines(); got != 3 {
		t.Fatalf("reopened machines = %d", got)
	}
	g, err = re.Snapshot(hi)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Fatal("reopened snapshot diverged")
	}
}

// TestRemoveNodePersistsTopology shrinks a durable store and reopens it.
func TestRemoveNodePersistsTopology(t *testing.T) {
	dir := t.TempDir()
	opts := smallOptions()
	opts.Machines = 3
	opts.DataDir = dir
	opts.RebalanceRate = -1
	events := workload.Wikipedia(workload.WikiConfig{Nodes: 400, EdgesPerNode: 3, Seed: 11})
	store, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Load(events); err != nil {
		t.Fatal(err)
	}
	_, hi, _ := store.TimeRange()
	want, err := store.Snapshot(hi)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.RemoveStorageNode(1); err != nil {
		t.Fatal(err)
	}
	if err := store.WaitRebalance(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Cluster().NodeIDs(); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("reopened nodes = %v", got)
	}
	g, err := re.Snapshot(hi)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Fatal("post-removal snapshot diverged")
	}
}

// TestOpenRefusesOtherFormat: a data directory whose cluster.json
// records another store format (none at all, as before the number
// existed, or a later one) is refused with ErrFormat naming both numbers,
// and the refusal leaves every file of the directory as it was.
func TestOpenRefusesOtherFormat(t *testing.T) {
	files := func(dir string) map[string]string {
		out := map[string]string{}
		filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				b, _ := os.ReadFile(p)
				out[p] = string(b)
			}
			return err
		})
		return out
	}
	for _, tc := range []struct {
		name   string
		format int
		meta   map[string]any
	}{
		{"none", 0, map[string]any{"machines": 2, "replication": 1, "engine": "disk"}},
		{"later", 2, map[string]any{"format": 2, "machines": 2, "replication": 1, "engine": "disk", "nodes": []int{0, 1}, "virtual_nodes": 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := smallOptions()
			opts.DataDir = t.TempDir()
			store, _ := loadWiki(t, opts, 100)
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			blob, _ := json.Marshal(tc.meta)
			if err := os.WriteFile(filepath.Join(opts.DataDir, "cluster.json"), blob, 0o644); err != nil {
				t.Fatal(err)
			}
			before := files(opts.DataDir)
			_, err := Open(Options{DataDir: opts.DataDir})
			if want := fmt.Sprintf("format %d, this build reads format %d", tc.format, core.Format); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), want) {
				t.Fatalf("Open: %v, want ErrFormat naming %q", err, want)
			}
			if after := files(opts.DataDir); !reflect.DeepEqual(before, after) {
				t.Fatal("a refused Open changed the data directory")
			}
		})
	}
}

// TestVirtualNodesConflictRejected: placement depends on the vnode
// count, so an explicit conflicting value must be rejected on reopen.
func TestVirtualNodesConflictRejected(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(Options{DataDir: dir, VirtualNodes: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{DataDir: dir, VirtualNodes: 16}); err == nil {
		t.Fatal("conflicting VirtualNodes must be rejected")
	}
	re, err := Open(Options{DataDir: dir}) // unset adopts the stored value
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
}

// TestTopologyGuardErrors checks the hgs-level sentinels.
func TestTopologyGuardErrors(t *testing.T) {
	opts := smallOptions()
	opts.Replication = 2
	store, _ := loadWiki(t, opts, 200)
	defer store.Close()
	if err := store.FailStorageNode(9); !errors.Is(err, ErrUnknownStorageNode) {
		t.Fatalf("FailStorageNode(9): %v", err)
	}
	if err := store.AddStorageNode(0); !errors.Is(err, ErrDuplicateStorageNode) {
		t.Fatalf("AddStorageNode(0): %v", err)
	}
	if err := store.RemoveStorageNode(1); !errors.Is(err, ErrTooFewNodes) {
		t.Fatalf("RemoveStorageNode(1): %v", err)
	}
}
