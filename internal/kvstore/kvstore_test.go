package kvstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hgs/internal/backend"
	"hgs/internal/backend/disklog"
	"hgs/internal/backend/tiered"
)

func newTestCluster(m, r int) *Cluster {
	return NewCluster(Config{Machines: m, Replication: r})
}

func TestPutGet(t *testing.T) {
	c := newTestCluster(3, 1)
	c.Put("deltas", "p1", "a", []byte("hello"))
	got, ok := c.Get("deltas", "p1", "a")
	if !ok || string(got) != "hello" {
		t.Fatalf("Get = %q,%v", got, ok)
	}
	if _, ok := c.Get("deltas", "p1", "missing"); ok {
		t.Fatal("missing ckey should not be found")
	}
	if _, ok := c.Get("deltas", "nope", "a"); ok {
		t.Fatal("missing partition should not be found")
	}
	// Overwrite.
	c.Put("deltas", "p1", "a", []byte("world"))
	got, _ = c.Get("deltas", "p1", "a")
	if string(got) != "world" {
		t.Fatal("overwrite failed")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	c := newTestCluster(1, 1)
	c.Put("t", "p", "k", []byte("abc"))
	got, _ := c.Get("t", "p", "k")
	got[0] = 'X'
	again, _ := c.Get("t", "p", "k")
	if string(again) != "abc" {
		t.Fatal("internal storage was mutated through returned slice")
	}
}

func TestScanPrefixSortedContiguous(t *testing.T) {
	c := newTestCluster(2, 1)
	// Clustering keys like "d0007/p003": all micro-partitions of a delta
	// must scan contiguously in sorted order.
	c.Put("deltas", "ts0/s1", "d0002/p001", []byte("b"))
	c.Put("deltas", "ts0/s1", "d0001/p002", []byte("a2"))
	c.Put("deltas", "ts0/s1", "d0001/p001", []byte("a1"))
	c.Put("deltas", "ts0/s1", "d0010/p001", []byte("c"))
	rows := c.ScanPrefix("deltas", "ts0/s1", "d0001/")
	if len(rows) != 2 || rows[0].CKey != "d0001/p001" || rows[1].CKey != "d0001/p002" {
		t.Fatalf("prefix scan wrong: %+v", rows)
	}
	all := c.ScanPartition("deltas", "ts0/s1")
	if len(all) != 4 {
		t.Fatalf("partition scan returned %d rows", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].CKey >= all[i].CKey {
			t.Fatal("rows not in clustering order")
		}
	}
}

func TestReplicationServesAfterPrimaryOnly(t *testing.T) {
	// With r == m every node holds every partition: reads must succeed
	// regardless of which replica the round-robin picks.
	c := newTestCluster(3, 3)
	c.Put("t", "p", "k", []byte("v"))
	for i := 0; i < 10; i++ {
		if _, ok := c.Get("t", "p", "k"); !ok {
			t.Fatal("replica read failed")
		}
	}
}

func TestReplicasDistinctAndStable(t *testing.T) {
	c := newTestCluster(4, 3)
	reps := c.ReplicasOf("t", "somekey")
	if len(reps) != 3 {
		t.Fatalf("want 3 replicas, got %d", len(reps))
	}
	seen := map[int]bool{}
	for _, r := range reps {
		if seen[r] {
			t.Fatal("duplicate replica")
		}
		seen[r] = true
	}
	reps2 := c.ReplicasOf("t", "somekey")
	for i := range reps {
		if reps[i] != reps2[i] {
			t.Fatal("replica placement not deterministic")
		}
	}
}

func TestDelete(t *testing.T) {
	c := newTestCluster(2, 2)
	c.Put("t", "p", "k", []byte("v"))
	c.Put("t", "p", "k2", []byte("v2"))
	c.Delete("t", "p", "k")
	if _, ok := c.Get("t", "p", "k"); ok {
		t.Fatal("row still present after delete")
	}
	c.Delete("t", "p", "k") // deleting a missing row is a no-op
	if v, ok := c.Get("t", "p", "k2"); !ok || string(v) != "v2" {
		t.Fatalf("delete touched a sibling row: ok=%v v=%q", ok, v)
	}
	if m := c.Metrics(); m.Writes != 4 {
		t.Fatalf("Writes = %d, want 4 (two puts, two deletes)", m.Writes)
	}
}

func TestDropPartitionAndStoredBytes(t *testing.T) {
	c := newTestCluster(1, 1)
	c.Put("t", "p", "k1", []byte("aaaa"))
	c.Put("t", "p", "k2", []byte("bbbb"))
	if c.StoredBytes() == 0 {
		t.Fatal("stored bytes should be positive")
	}
	c.DropPartition("t", "p")
	if c.StoredBytes() != 0 {
		t.Fatalf("stored bytes after drop = %d, want 0", c.StoredBytes())
	}
	if rows := c.ScanPartition("t", "p"); len(rows) != 0 {
		t.Fatal("partition still has rows")
	}
}

func TestLogicalBytesDividesReplication(t *testing.T) {
	a := newTestCluster(3, 1)
	b := newTestCluster(3, 3)
	payload := make([]byte, 1000)
	a.Put("t", "p", "k", payload)
	b.Put("t", "p", "k", payload)
	if a.LogicalBytes() != b.LogicalBytes() {
		t.Fatalf("logical bytes differ: %d vs %d", a.LogicalBytes(), b.LogicalBytes())
	}
	if b.StoredBytes() != 3*a.StoredBytes() {
		t.Fatalf("physical bytes should triple with r=3: %d vs %d", b.StoredBytes(), a.StoredBytes())
	}
}

func TestMetricsCounting(t *testing.T) {
	c := newTestCluster(2, 1)
	c.Put("t", "p", "k", []byte("12345"))
	c.Get("t", "p", "k")
	c.ScanPartition("t", "p")
	m := c.Metrics()
	if m.Writes != 1 || m.Reads != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.BytesRead != 10 || m.BytesWritten != 5 {
		t.Fatalf("byte counters = %+v", m)
	}
	c.ResetMetrics()
	if m := c.Metrics(); m.Reads != 0 || m.Writes != 0 {
		t.Fatal("reset failed")
	}
}

func TestPartitionKeys(t *testing.T) {
	c := newTestCluster(3, 1)
	for i := 0; i < 10; i++ {
		c.Put("t", fmt.Sprintf("p%02d", i), "k", []byte("v"))
	}
	keys := c.PartitionKeys("t")
	if len(keys) != 10 || keys[0] != "p00" || keys[9] != "p09" {
		t.Fatalf("partition keys wrong: %v", keys)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := newTestCluster(4, 2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pk := fmt.Sprintf("p%d", i%16)
				ck := fmt.Sprintf("w%d/i%03d", w, i)
				c.Put("t", pk, ck, []byte{byte(i)})
				c.Get("t", pk, ck)
				c.ScanPrefix("t", pk, fmt.Sprintf("w%d/", w))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Metrics().Writes; got != 8*200 {
		t.Fatalf("writes = %d, want %d", got, 8*200)
	}
}

func TestLatencyCost(t *testing.T) {
	lm := LatencyModel{BaseOp: 100 * time.Microsecond, PerKB: 10 * time.Microsecond}
	if lm.Cost(0) != 100*time.Microsecond {
		t.Fatal("base cost wrong")
	}
	if lm.Cost(2048) != 120*time.Microsecond {
		t.Fatalf("cost(2KB) = %v, want 120µs", lm.Cost(2048))
	}
	off := LatencyModel{}
	if off.Cost(1<<20) != 0 {
		t.Fatal("zero model must cost 0")
	}
}

// TestDiskBackedClusterSurvivesReopen runs a cluster on disklog
// engines, closes it, and reopens a new cluster over the same
// directories: all rows (and the byte accounting) must survive.
func TestDiskBackedClusterSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	mk := func() (*Cluster, error) {
		return Open(Config{Machines: 3, Replication: 2, Backend: disklog.Factory(dir, disklog.Options{})})
	}
	c, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		c.Put("deltas", fmt.Sprintf("p%02d", i%5), fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	c.Delete("deltas", "p00", "k000")
	stored := c.StoredBytes()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.StoredBytes(); got != stored {
		t.Fatalf("stored bytes after reopen = %d, want %d", got, stored)
	}
	if _, ok := r.Get("deltas", "p00", "k000"); ok {
		t.Fatal("deleted row resurrected")
	}
	for i := 1; i < 40; i++ {
		pk, ck := fmt.Sprintf("p%02d", i%5), fmt.Sprintf("k%03d", i)
		// Probe every replica via repeated reads (round-robin picks
		// rotate through them).
		for probe := 0; probe < 2; probe++ {
			v, ok := r.Get("deltas", pk, ck)
			if !ok || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("row (%s,%s) lost across reopen: %q,%v", pk, ck, v, ok)
			}
		}
	}
	if keys := r.PartitionKeys("deltas"); len(keys) != 5 {
		t.Fatalf("partition keys after reopen: %v", keys)
	}
}

func TestOpenFactoryFailureClosesEarlierNodes(t *testing.T) {
	closed := 0
	boom := errors.New("boom")
	_, err := Open(Config{Machines: 3, Backend: func(node int) (backend.Backend, error) {
		if node == 2 {
			return nil, boom
		}
		return &closeCounter{closed: &closed}, nil
	}})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if closed != 2 {
		t.Fatalf("closed %d engines, want 2", closed)
	}
}

// closeCounter is a stub backend counting Close calls.
type closeCounter struct {
	backend.Backend
	closed *int
}

func (c *closeCounter) Close() error { *c.closed++; return nil }

func TestConfigNormalization(t *testing.T) {
	c := NewCluster(Config{Machines: 0, Replication: 9})
	if c.Machines() != 1 || c.Config().Replication != 1 {
		t.Fatalf("normalization wrong: %+v", c.Config())
	}
}

func TestMultiGetMatchesGet(t *testing.T) {
	c := NewCluster(Config{Machines: 3, Replication: 2})
	refs := make([]KeyRef, 0, 40)
	for i := 0; i < 40; i++ {
		pkey := fmt.Sprintf("p%d", i%5)
		ckey := fmt.Sprintf("c%02d", i)
		if i%4 != 3 { // leave every fourth key absent
			c.Put("t", pkey, ckey, []byte(fmt.Sprintf("v%d", i)))
		}
		refs = append(refs, KeyRef{Table: "t", PKey: pkey, CKey: ckey})
	}
	got := c.MultiGet(refs)
	for i, ref := range refs {
		v, ok := c.Get(ref.Table, ref.PKey, ref.CKey)
		if ok != got[i].Found {
			t.Fatalf("ref %d: found=%v, Get says %v", i, got[i].Found, ok)
		}
		if ok && string(v) != string(got[i].Value) {
			t.Fatalf("ref %d: value %q != %q", i, got[i].Value, v)
		}
	}
}

func TestMultiScanMatchesScanPrefix(t *testing.T) {
	c := NewCluster(Config{Machines: 2, Replication: 1})
	for p := 0; p < 4; p++ {
		for i := 0; i < 10; i++ {
			c.Put("t", fmt.Sprintf("p%d", p), fmt.Sprintf("a%02d", i), []byte{byte(p), byte(i)})
			c.Put("t", fmt.Sprintf("p%d", p), fmt.Sprintf("b%02d", i), []byte{byte(i)})
		}
	}
	refs := []ScanRef{
		{Table: "t", PKey: "p0", Prefix: "a"},
		{Table: "t", PKey: "p1", Prefix: "b"},
		{Table: "t", PKey: "p2", Prefix: ""},
		{Table: "t", PKey: "nope", Prefix: "a"},
	}
	got, _ := c.MultiScanStatsCtx(context.Background(), refs)
	for i, ref := range refs {
		want := c.ScanPrefix(ref.Table, ref.PKey, ref.Prefix)
		if len(want) != len(got[i]) {
			t.Fatalf("scan %d: %d rows != %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if want[j].CKey != got[i][j].CKey || string(want[j].Value) != string(got[i][j].Value) {
				t.Fatalf("scan %d row %d differs", i, j)
			}
		}
	}
}

func TestMultiGetRoundTripAccounting(t *testing.T) {
	const machines = 3
	c := NewCluster(Config{Machines: machines, Replication: 1})
	refs := make([]KeyRef, 0, 60)
	for i := 0; i < 60; i++ {
		pkey := fmt.Sprintf("p%d", i%6)
		ckey := fmt.Sprintf("c%02d", i)
		c.Put("t", pkey, ckey, []byte("v"))
		refs = append(refs, KeyRef{Table: "t", PKey: pkey, CKey: ckey})
	}
	c.ResetMetrics()
	c.MultiGet(refs)
	m := c.Metrics()
	if m.Reads != int64(len(refs)) {
		t.Fatalf("Reads = %d, want %d logical ops", m.Reads, len(refs))
	}
	if m.RoundTrips > machines {
		t.Fatalf("RoundTrips = %d, want <= %d (one batch per node)", m.RoundTrips, machines)
	}
	// The same keys as single Gets pay one round-trip each.
	c.ResetMetrics()
	for _, ref := range refs {
		c.Get(ref.Table, ref.PKey, ref.CKey)
	}
	if m := c.Metrics(); m.RoundTrips != int64(len(refs)) {
		t.Fatalf("single-key RoundTrips = %d, want %d", m.RoundTrips, len(refs))
	}
}

func TestSimWaitAccumulates(t *testing.T) {
	c := NewCluster(Config{Machines: 1, Replication: 1, Latency: LatencyModel{BaseOp: time.Microsecond}})
	c.Put("t", "p", "c", []byte("v"))
	c.Get("t", "p", "c")
	if m := c.Metrics(); m.SimWait <= 0 {
		t.Fatalf("SimWait = %v, want > 0", m.SimWait)
	}
	c.ResetMetrics()
	if m := c.Metrics(); m.SimWait != 0 || m.RoundTrips != 0 {
		t.Fatalf("reset left %+v", m)
	}
}

// TestRoundTimeModel pins the modelled clock of one batched store round:
// a scan call and a get call issued together charge each node once per
// call, a node's busy time is the sum over both calls, and the round
// lasts as long as the busiest node. With the zero model the round
// costs nothing and no per-node accounting is allocated.
func TestRoundTimeModel(t *testing.T) {
	lm := LatencyModel{BaseOp: 100 * time.Microsecond, PerKB: 1024 * time.Microsecond} // 1µs per byte
	for _, tc := range []struct {
		name  string
		model LatencyModel
	}{{"default-shaped", lm}, {"zero", LatencyModel{}}} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCluster(Config{Machines: 2, Replication: 1, Latency: tc.model})
			defer c.Close()
			// One partition on each node.
			pkeys := map[int]string{}
			for i := 0; len(pkeys) < 2; i++ {
				pk := fmt.Sprintf("p%d", i)
				if id := c.ReplicasOf("t", pk)[0]; pkeys[id] == "" {
					pkeys[id] = pk
				}
			}
			// Node 0 holds two 100-byte rows, node 1 one 300-byte row.
			c.Put("t", pkeys[0], "a", make([]byte, 100))
			c.Put("t", pkeys[0], "b", make([]byte, 100))
			c.Put("t", pkeys[1], "a", make([]byte, 300))

			_, scan := c.MultiScanStatsCtx(context.Background(), []ScanRef{
				{Table: "t", PKey: pkeys[0]}, {Table: "t", PKey: pkeys[1]},
			})
			_, get := c.MultiGetStatsCtx(context.Background(), []KeyRef{
				{Table: "t", PKey: pkeys[0], CKey: "a"}, {Table: "t", PKey: pkeys[0], CKey: "b"},
			})
			got := RoundTime(scan, get)
			if tc.model == (LatencyModel{}) {
				if got != 0 || scan.NodeWaits != nil || get.NodeWaits != nil || scan.SimWait != 0 {
					t.Fatalf("zero model: round %v, node waits %v / %v", got, scan.NodeWaits, get.NodeWaits)
				}
				return
			}
			// Stored rows carry the write stamp; each call visits a node
			// once: node 0 serves the scan of both rows and the get of both
			// rows, node 1 only the scan of its row.
			row := func(n int) time.Duration { return time.Duration(n+stampOverhead) * time.Microsecond }
			node0 := 2 * (100*time.Microsecond + 2*row(100))
			node1 := 100*time.Microsecond + row(300)
			if want := max(node0, node1); got != want {
				t.Fatalf("round time %v, want %v (node 0 %v, node 1 %v)", got, want, node0, node1)
			}
			if scan.SimWait+get.SimWait != node0+node1 {
				t.Fatalf("SimWait %v, want the sum over nodes %v", scan.SimWait+get.SimWait, node0+node1)
			}
			if RoundTime(scan) != max(node0/2, node1) || RoundTime(get) != node0/2 {
				t.Fatalf("single-call rounds %v / %v", RoundTime(scan), RoundTime(get))
			}
		})
	}
}

func TestTierMetricsAggregation(t *testing.T) {
	c, err := Open(Config{
		Machines: 2,
		Backend: tiered.Factory(t.TempDir(), tiered.Options{
			HotBytes: 1 << 30, // everything stays in memory
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 32; i++ {
		c.Put("deltas", fmt.Sprintf("p%d", i%4), fmt.Sprintf("c%02d", i), []byte("v"))
	}
	for i := 0; i < 32; i++ {
		if _, ok := c.Get("deltas", fmt.Sprintf("p%d", i%4), fmt.Sprintf("c%02d", i)); !ok {
			t.Fatalf("row %d missing", i)
		}
	}
	m := c.Metrics()
	if m.TierHotReads != 32 {
		t.Fatalf("TierHotReads = %d, want 32", m.TierHotReads)
	}
	if m.TierColdReads != 0 {
		t.Fatalf("TierColdReads = %d, want 0 for an all-hot working set", m.TierColdReads)
	}
	if m.TierHotBytes == 0 {
		t.Fatal("TierHotBytes gauge empty with resident rows")
	}
	// Reset establishes a baseline for the cumulative engine counters;
	// the gauge survives.
	c.ResetMetrics()
	m = c.Metrics()
	if m.TierHotReads != 0 || m.TierColdReads != 0 {
		t.Fatalf("tier counters after reset: %+v", m)
	}
	if m.TierHotBytes == 0 {
		t.Fatal("TierHotBytes gauge must survive ResetMetrics")
	}
}

func TestClusterBackupAndRestore(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory func(root string) backend.Factory
	}{
		{"disklog", func(root string) backend.Factory { return disklog.Factory(root, disklog.Options{}) }},
		{"tiered", func(root string) backend.Factory {
			return tiered.Factory(root, tiered.Options{HotBytes: 1 << 10})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := Open(Config{Machines: 3, Backend: tc.factory(t.TempDir())})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			for i := 0; i < 64; i++ {
				src.Put("deltas", fmt.Sprintf("p%d", i%8), fmt.Sprintf("c%02d", i), []byte(fmt.Sprintf("v%02d", i)))
			}
			backupDir := t.TempDir()
			if err := src.Backup(backupDir); err != nil {
				t.Fatal(err)
			}
			// A write after the backup must not appear in the copy.
			src.Put("deltas", "p0", "c99", []byte("late"))

			restored, err := Open(Config{Machines: 3, Backend: tc.factory(backupDir)})
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			for i := 0; i < 64; i++ {
				v, ok := restored.Get("deltas", fmt.Sprintf("p%d", i%8), fmt.Sprintf("c%02d", i))
				if !ok || string(v) != fmt.Sprintf("v%02d", i) {
					t.Fatalf("row %d wrong in restored cluster", i)
				}
			}
			if _, ok := restored.Get("deltas", "p0", "c99"); ok {
				t.Fatal("post-backup write leaked into the backup")
			}
		})
	}
}

func TestBackupRequiresDurableEngines(t *testing.T) {
	c := newTestCluster(2, 1)
	defer c.Close()
	if err := c.Backup(t.TempDir()); err == nil {
		t.Fatal("backup of in-memory cluster must fail")
	}
}

// TestWarmUpMetricsAggregation: a tiered cluster whose rows all lived
// only on disk serves them from memory right after a reopen (the log
// replay refills the memory budget), and the cluster's tier counters
// say so.
func TestWarmUpMetricsAggregation(t *testing.T) {
	root := t.TempDir()
	seed, err := Open(Config{Machines: 2, Backend: tiered.Factory(root, tiered.Options{HotBytes: 1})})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		seed.Put("deltas", fmt.Sprintf("p%d", i%8), fmt.Sprintf("c%03d", i), []byte(fmt.Sprintf("v%03d", i)))
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := Open(Config{Machines: 2, Backend: tiered.Factory(root, tiered.Options{HotBytes: 1 << 30})})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ResetMetrics()
	for i := 0; i < 200; i++ {
		if _, ok := c.Get("deltas", fmt.Sprintf("p%d", i%8), fmt.Sprintf("c%03d", i)); !ok {
			t.Fatalf("row %d missing after reopen", i)
		}
	}
	m := c.Metrics()
	if m.TierColdReads != 0 || m.TierHotReads != 200 {
		t.Fatalf("reopened cluster served hot=%d cold=%d, want all 200 hot", m.TierHotReads, m.TierColdReads)
	}
}

// TestCallStatsMatchMetrics pins the read path's accounting over
// R∈{1,2} × {healthy, replica down, replica faulting} × the four read
// spellings, each on a fresh 3-node / replication-2 cluster so the
// round-robin rotation starts from the same point:
//
//   - per-call attribution: the CallStats a batched read returns equals
//     exactly what the call added to the cluster counters — including
//     the visits that failed (the R=1 faulting-replica rows under-reported
//     round-trips and simulated wait before the shared visit loop);
//   - parity: every spelling returns the written values in every cell,
//     and Reads / BytesRead / Failovers are the numbers the pre-collapse
//     implementation produced (recorded from a run of this table there);
//   - DegradedReads is non-zero exactly when some read was answered by a
//     replica other than its rotation choice.
func TestCallStatsMatchMetrics(t *testing.T) {
	const keys, parts = 40, 5
	value := func(i int) string { return fmt.Sprintf("value-%03d", i) }
	healths := []struct {
		name  string
		apply func(c *Cluster) error
	}{
		{"healthy", func(*Cluster) error { return nil }},
		{"down", func(c *Cluster) error { return c.FailNode(0) }},
		{"faulting", func(c *Cluster) error { return c.InjectFault(0, &Fault{ErrRate: 1}) }},
	}
	type counts struct {
		reads, bytes, failovers int64
		degraded                bool
	}
	kinds := []string{"Get", "ScanPrefix", "batched get", "batched scan"}
	// want[r-1][health][kind]. At R=1 a batched read routes around a
	// down replica when it plans its per-node batches (degraded, no
	// failover) and loses one whole batch visit to a faulting one.
	want := [2][3][4]counts{
		{
			{{41, 360, 0, false}, {6, 360, 0, false}, {41, 360, 0, false}, {6, 360, 0, false}},
			{{41, 360, 12, true}, {6, 360, 1, true}, {41, 360, 0, true}, {6, 360, 0, true}},
			{{41, 360, 12, true}, {6, 360, 1, true}, {41, 360, 1, true}, {6, 360, 1, true}},
		},
		{
			{{41, 360, 0, false}, {6, 360, 0, false}, {41, 360, 0, false}, {6, 360, 0, false}},
			{{41, 360, 25, true}, {6, 360, 4, true}, {41, 360, 25, true}, {6, 360, 4, true}},
			{{41, 360, 25, true}, {6, 360, 4, true}, {41, 360, 25, true}, {6, 360, 4, true}},
		},
	}
	for r := 1; r <= 2; r++ {
		for hi, h := range healths {
			for ki, kind := range kinds {
				t.Run(fmt.Sprintf("R=%d/%s/%s", r, h.name, kind), func(t *testing.T) {
					c := NewCluster(Config{
						Machines: 3, Replication: 2, ReadQuorum: r,
						Latency: LatencyModel{BaseOp: 2 * time.Microsecond, PerKB: 4 * time.Microsecond},
					})
					defer c.Close()
					refs := make([]KeyRef, 0, keys+1)
					scans := make([]ScanRef, 0, parts+1)
					for i := 0; i < keys; i++ {
						pkey, ckey := fmt.Sprintf("p%d", i%parts), fmt.Sprintf("c%02d", i)
						c.Put("t", pkey, ckey, []byte(value(i)))
						refs = append(refs, KeyRef{Table: "t", PKey: pkey, CKey: ckey})
					}
					refs = append(refs, KeyRef{Table: "t", PKey: "p0", CKey: "missing"})
					for p := 0; p < parts; p++ {
						scans = append(scans, ScanRef{Table: "t", PKey: fmt.Sprintf("p%d", p), Prefix: "c"})
					}
					scans = append(scans, ScanRef{Table: "t", PKey: "nope"})
					if err := h.apply(c); err != nil {
						t.Fatal(err)
					}
					checkGet := func(i int, v []byte, found bool) {
						t.Helper()
						if i == keys {
							if found {
								t.Fatalf("absent key found (%q)", v)
							}
						} else if !found || string(v) != value(i) {
							t.Fatalf("key %d = %q, %v; want %q", i, v, found, value(i))
						}
					}
					checkScan := func(p int, rows []Row) {
						t.Helper()
						if p == parts {
							if len(rows) != 0 {
								t.Fatalf("scan of an absent partition returned %d rows", len(rows))
							}
							return
						}
						if len(rows) != keys/parts {
							t.Fatalf("scan %d: %d rows, want %d", p, len(rows), keys/parts)
						}
						for j, row := range rows {
							i := p + j*parts
							if row.CKey != refs[i].CKey || string(row.Value) != value(i) {
								t.Fatalf("scan %d row %d = %s %q, want %s %q", p, j, row.CKey, row.Value, refs[i].CKey, value(i))
							}
						}
					}

					c.ResetMetrics()
					var cs CallStats
					batched := false
					switch kind {
					case "Get":
						for i, ref := range refs {
							v, ok := c.Get(ref.Table, ref.PKey, ref.CKey)
							checkGet(i, v, ok)
						}
					case "ScanPrefix":
						for p, ref := range scans {
							checkScan(p, c.ScanPrefix(ref.Table, ref.PKey, ref.Prefix))
						}
					case "batched get":
						var out []GetResult
						out, cs = c.MultiGetStatsCtx(context.Background(), refs)
						batched = true
						for i, g := range out {
							checkGet(i, g.Value, g.Found)
						}
					case "batched scan":
						var out [][]Row
						out, cs = c.MultiScanStatsCtx(context.Background(), scans)
						batched = true
						for p, rows := range out {
							checkScan(p, rows)
						}
					}
					m := c.Metrics()
					if batched && (cs.Reads != m.Reads || cs.RoundTrips != m.RoundTrips || cs.BytesRead != m.BytesRead || cs.SimWait != m.SimWait) {
						t.Errorf("CallStats %+v != metrics {Reads:%d RoundTrips:%d BytesRead:%d SimWait:%v}",
							cs, m.Reads, m.RoundTrips, m.BytesRead, m.SimWait)
					}
					got := counts{m.Reads, m.BytesRead, m.Failovers, m.DegradedReads > 0}
					if w := want[r-1][hi][ki]; got != w {
						t.Errorf("counters {reads bytes failovers degraded} = %+v, want %+v", got, w)
					}
				})
			}
		}
	}
}
