package kvstore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"hgs/internal/backend/disklog"
)

// fillCluster writes n partitions of two rows each and returns a checker
// that verifies every row is readable and correct.
func fillCluster(t *testing.T, c *Cluster, n int) func() {
	t.Helper()
	for i := 0; i < n; i++ {
		pk := fmt.Sprintf("p%03d", i)
		c.Put("t", pk, "a", []byte("va-"+pk))
		c.Put("t", pk, "b", []byte("vb-"+pk))
	}
	return func() {
		t.Helper()
		for i := 0; i < n; i++ {
			pk := fmt.Sprintf("p%03d", i)
			v, ok := c.Get("t", pk, "a")
			if !ok || string(v) != "va-"+pk {
				t.Fatalf("partition %s row a: ok=%v v=%q", pk, ok, v)
			}
			rows := c.ScanPartition("t", pk)
			if len(rows) != 2 || rows[1].CKey != "b" || string(rows[1].Value) != "vb-"+pk {
				t.Fatalf("partition %s scan: %v", pk, rows)
			}
		}
	}
}

func TestFailNodeReadsFailOver(t *testing.T) {
	c := newTestCluster(3, 2)
	defer c.Close()
	check := fillCluster(t, c, 40)

	if err := c.FailNode(1); err != nil {
		t.Fatal(err)
	}
	check()
	m := c.Metrics()
	if m.DegradedReads == 0 || m.Failovers == 0 {
		t.Fatalf("expected degraded reads and failovers with a node down, got %+v", m)
	}

	if err := c.ReviveNode(1); err != nil {
		t.Fatal(err)
	}
	c.ResetMetrics()
	check()
	m = c.Metrics()
	if m.DegradedReads != 0 || m.Failovers != 0 {
		t.Fatalf("counters kept growing after revive: %+v", m)
	}
}

func TestFailNodeWritesHintAndReplay(t *testing.T) {
	c := newTestCluster(2, 2)
	defer c.Close()
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		pk := fmt.Sprintf("p%02d", i)
		c.Put("t", pk, "k", []byte("v-"+pk))
	}
	m := c.Metrics()
	if m.HintedWrites == 0 || m.UnderReplicatedWrites == 0 {
		t.Fatalf("expected hinted and under-replicated writes, got %+v", m)
	}
	if err := c.ReviveNode(0); err != nil {
		t.Fatal(err)
	}
	// Fail the OTHER node: reads must now be served entirely by node 0,
	// which only has the data if hint replay worked.
	if err := c.FailNode(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		pk := fmt.Sprintf("p%02d", i)
		v, ok := c.Get("t", pk, "k")
		if !ok || string(v) != "v-"+pk {
			t.Fatalf("hinted write not replayed for %s: ok=%v v=%q", pk, ok, v)
		}
	}
}

// TestFailNodeDeleteAndDropHintAndReplay: a Delete and a DropPartition
// that meet a down replica are queued as hints like a Put, and apply
// when the node is revived.
func TestFailNodeDeleteAndDropHintAndReplay(t *testing.T) {
	c := newTestCluster(2, 2)
	defer c.Close()
	c.Put("t", "p", "k", []byte("v"))
	c.Put("t", "p", "keep", []byte("v"))
	c.Put("t", "q", "k1", []byte("v"))
	c.Put("t", "q", "k2", []byte("v"))
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	c.Delete("t", "p", "k")
	c.DropPartition("t", "q")
	m := c.Metrics()
	if m.HintedWrites != 2 || m.UnderReplicatedWrites != 2 {
		t.Fatalf("want 2 hinted and 2 under-replicated writes, got %+v", m)
	}
	if got := c.Topology().Nodes[0].PendingHints; got != 2 {
		t.Fatalf("node 0 pending hints = %d, want 2", got)
	}
	if err := c.ReviveNode(0); err != nil {
		t.Fatal(err)
	}
	// Reads now come from node 0 alone, which lost the rows only if the
	// hints were replayed.
	if err := c.FailNode(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("t", "p", "k"); ok {
		t.Fatal("hinted delete not replayed")
	}
	if _, ok := c.Get("t", "p", "keep"); !ok {
		t.Fatal("replayed delete removed a sibling row")
	}
	if rows := c.ScanPartition("t", "q"); len(rows) != 0 {
		t.Fatalf("hinted drop not replayed: %d rows left", len(rows))
	}
}

func TestAllReplicasDownReadsMiss(t *testing.T) {
	c := newTestCluster(2, 2)
	defer c.Close()
	c.Put("t", "p", "k", []byte("v"))
	c.FailNode(0)
	c.FailNode(1)
	if _, ok := c.Get("t", "p", "k"); ok {
		t.Fatal("read should miss with every replica down")
	}
	if got := c.MultiGet([]KeyRef{{Table: "t", PKey: "p", CKey: "k"}}); got[0].Found {
		t.Fatal("batched read should miss with every replica down")
	}
}

// TestInjectFaultValidates pins InjectFault's profile checks and its
// copy: a rate outside [0, 1] (NaN included) or a negative ExtraLatency
// is refused, and a caller mutating its Fault after installing it does
// not change what the node does.
func TestInjectFaultValidates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault *Fault
		ok    bool
	}{
		{"clear", nil, true},
		{"zero", &Fault{}, true},
		{"always", &Fault{ErrRate: 1}, true},
		{"half and slow", &Fault{ErrRate: 0.5, ExtraLatency: time.Millisecond}, true},
		{"negative rate", &Fault{ErrRate: -0.1}, false},
		{"rate above one", &Fault{ErrRate: 1.5}, false},
		{"NaN rate", &Fault{ErrRate: math.NaN()}, false},
		{"negative latency", &Fault{ExtraLatency: -time.Hour}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(2, 2)
			defer c.Close()
			if err := c.InjectFault(0, tc.fault); (err == nil) != tc.ok {
				t.Fatalf("InjectFault(%+v) = %v, want ok=%v", tc.fault, err, tc.ok)
			}
		})
	}

	c := NewCluster(Config{Machines: 1, Latency: LatencyModel{BaseOp: time.Microsecond}})
	defer c.Close()
	c.Put("t", "p", "k", []byte("v"))
	f := &Fault{}
	if err := c.InjectFault(0, f); err != nil {
		t.Fatal(err)
	}
	f.ErrRate, f.ExtraLatency = 1, -time.Hour
	c.ResetMetrics()
	if _, ok := c.Get("t", "p", "k"); !ok {
		t.Fatal("a Fault mutated after InjectFault changed the installed profile")
	}
	if m := c.Metrics(); m.Failovers != 0 || m.SimWait != time.Microsecond {
		t.Fatalf("installed profile changed by the caller: %+v", m)
	}
}

func TestInjectFaultFailsOver(t *testing.T) {
	c := newTestCluster(2, 2)
	defer c.Close()
	c.Put("t", "p", "k", []byte("v"))
	if err := c.InjectFault(0, &Fault{ErrRate: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if v, ok := c.Get("t", "p", "k"); !ok || string(v) != "v" {
			t.Fatalf("read through injected fault: ok=%v v=%q", ok, v)
		}
	}
	if m := c.Metrics(); m.Failovers == 0 {
		t.Fatalf("injected fault should count failovers, got %+v", m)
	}
	c.InjectFault(0, nil)
	c.ResetMetrics()
	c.Get("t", "p", "k")
	// Rotation may still pick node 1 first, but nothing should fail.
	if m := c.Metrics(); m.Failovers != 0 {
		t.Fatalf("failovers after clearing fault: %+v", m)
	}
}

func TestBatchedReadsFailOver(t *testing.T) {
	c := newTestCluster(3, 2)
	defer c.Close()
	check := fillCluster(t, c, 30)
	_ = check
	c.FailNode(2)
	var refs []KeyRef
	var scans []ScanRef
	for i := 0; i < 30; i++ {
		pk := fmt.Sprintf("p%03d", i)
		refs = append(refs, KeyRef{Table: "t", PKey: pk, CKey: "a"})
		scans = append(scans, ScanRef{Table: "t", PKey: pk})
	}
	got := c.MultiGet(refs)
	for i, g := range got {
		want := "va-" + refs[i].PKey
		if !g.Found || string(g.Value) != want {
			t.Fatalf("MultiGet[%d]: found=%v v=%q want %q", i, g.Found, g.Value, want)
		}
	}
	rows, _ := c.MultiScanStatsCtx(context.Background(), scans)
	for i, rs := range rows {
		if len(rs) != 2 {
			t.Fatalf("batched scan[%d]: %d rows", i, len(rs))
		}
	}
}

// TestInjectFaultMidBatch exercises the batch retry path: the fault
// fires on some visits, so whole node batches error and every key must
// be re-served from the other replica.
func TestInjectFaultMidBatch(t *testing.T) {
	c := newTestCluster(2, 2)
	defer c.Close()
	fillCluster(t, c, 20)
	c.InjectFault(0, &Fault{ErrRate: 1})
	var refs []KeyRef
	for i := 0; i < 20; i++ {
		refs = append(refs, KeyRef{Table: "t", PKey: fmt.Sprintf("p%03d", i), CKey: "b"})
	}
	got := c.MultiGet(refs)
	for i, g := range got {
		want := "vb-" + refs[i].PKey
		if !g.Found || string(g.Value) != want {
			t.Fatalf("MultiGet[%d] under fault: found=%v v=%q", i, g.Found, g.Value)
		}
	}
}

func TestAddNodeRebalancesAndServes(t *testing.T) {
	c := NewCluster(Config{Machines: 3, Replication: 2, RebalanceRate: -1})
	defer c.Close()
	check := fillCluster(t, c, 60)

	before := c.Topology()
	if err := c.AddNode(3); err != nil {
		t.Fatal(err)
	}
	check() // reads must stay correct while the migration runs
	if err := c.WaitRebalance(); err != nil {
		t.Fatal(err)
	}
	check()
	if got := c.Machines(); got != 4 {
		t.Fatalf("machines after add = %d", got)
	}
	after := c.Topology()
	if len(after.Nodes) != 4 {
		t.Fatalf("topology nodes = %d", len(after.Nodes))
	}
	m := c.Metrics()
	if m.RebalancedPartitions == 0 {
		t.Fatal("expected some partitions to move on node add")
	}
	// Movement bound: a 4-node ring with r=2 should move well under
	// half the partitions (theoretical share ~ r/m = 1/2 of keys get a
	// changed owner SET upper-bounded by 2K/m; allow slack for a small
	// sample).
	if m.RebalancedPartitions > 45 {
		t.Fatalf("moved %d of 60 partitions — more than a consistent ring should", m.RebalancedPartitions)
	}
	_ = before
}

func TestRemoveNodeDrainsAndServes(t *testing.T) {
	c := NewCluster(Config{Machines: 4, Replication: 2, RebalanceRate: -1})
	defer c.Close()
	check := fillCluster(t, c, 60)
	if err := c.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	check()
	if err := c.WaitRebalance(); err != nil {
		t.Fatal(err)
	}
	check()
	if got := c.Machines(); got != 3 {
		t.Fatalf("machines after remove = %d", got)
	}
	for _, id := range c.NodeIDs() {
		if id == 2 {
			t.Fatal("removed node still listed")
		}
	}
	// Every partition must still have Replication live copies: fail one
	// node and everything must still answer.
	c.FailNode(0)
	check()
	c.ReviveNode(0)
	c.FailNode(1)
	check()
}

func TestAddNodeUnderLiveTraffic(t *testing.T) {
	c := NewCluster(Config{Machines: 2, Replication: 2, RebalanceRate: 64 << 20})
	defer c.Close()
	const parts = 80
	check := fillCluster(t, c, parts)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				pk := fmt.Sprintf("p%03d", (i*7+w)%parts)
				if v, ok := c.Get("t", pk, "a"); !ok || string(v) != "va-"+pk {
					t.Errorf("mid-rebalance read %s: ok=%v v=%q", pk, ok, v)
					return
				}
				if w == 0 {
					c.Put("t", pk, "c", []byte("vc-"+pk))
				}
				i++
			}
		}(w)
	}
	if err := c.AddNode(5); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitRebalance(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	_ = check
	// The original rows must survive the migration (the writer added a
	// third row "c" to some partitions, so assert a and b directly),
	// including after a replica failure.
	c.FailNode(5)
	for i := 0; i < parts; i++ {
		pk := fmt.Sprintf("p%03d", i)
		if v, ok := c.Get("t", pk, "a"); !ok || string(v) != "va-"+pk {
			t.Fatalf("row a lost for %s: ok=%v v=%q", pk, ok, v)
		}
		if v, ok := c.Get("t", pk, "b"); !ok || string(v) != "vb-"+pk {
			t.Fatalf("row b lost for %s: ok=%v v=%q", pk, ok, v)
		}
		if v, ok := c.Get("t", pk, "c"); ok && string(v) != "vc-"+pk {
			t.Fatalf("mid-rebalance write corrupted for %s: %q", pk, v)
		}
	}
}

// TestConcurrentTopologyCallsSerialized races several AddNode calls:
// the rebActive check-and-arm is one critical section under topoMu, so
// the losers must see ErrRebalancing and two migrations can never
// overlap (the double-begin corrupted handoff state and double-closed
// rebDone before the check moved under the lock).
func TestConcurrentTopologyCallsSerialized(t *testing.T) {
	c := NewCluster(Config{Machines: 3, Replication: 2, RebalanceRate: -1})
	defer c.Close()
	check := fillCluster(t, c, 30)
	id := 3
	for round := 0; round < 10; round++ {
		var wg sync.WaitGroup
		var errs [3]error
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = c.AddNode(id + i)
			}(i)
		}
		wg.Wait()
		added := 0
		for _, err := range errs {
			switch {
			case err == nil:
				added++
			case errors.Is(err, ErrRebalancing):
			default:
				t.Fatal(err)
			}
		}
		if added == 0 {
			t.Fatal("no AddNode won the race")
		}
		if err := c.WaitRebalance(); err != nil {
			t.Fatal(err)
		}
		// Shrink back to the base set so rounds don't accumulate nodes.
		for i, err := range errs {
			if err != nil {
				continue
			}
			for {
				rmErr := c.RemoveNode(id + i)
				if rmErr == nil {
					break
				}
				if !errors.Is(rmErr, ErrRebalancing) {
					t.Fatal(rmErr)
				}
				c.WaitRebalance()
			}
			if err := c.WaitRebalance(); err != nil {
				t.Fatal(err)
			}
		}
		id += 3
	}
	check()
}

// TestReviveConcurrentWritesNotLost hammers writes against a replica
// that flaps down/up: the hint append re-checks down under the same
// lock as revive's final drain, so no mutation may strand in the hint
// queue while the node serves reads.
func TestReviveConcurrentWritesNotLost(t *testing.T) {
	c := newTestCluster(2, 2)
	defer c.Close()
	const n = 300
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.FailNode(0)
			c.ReviveNode(0)
		}
	}()
	for i := 0; i < n; i++ {
		pk := fmt.Sprintf("p%04d", i)
		c.Put("t", pk, "k", []byte("v-"+pk))
	}
	close(stop)
	wg.Wait()
	if err := c.ReviveNode(0); err != nil {
		t.Fatal(err)
	}
	// Force every read onto node 0: each write must have been applied or
	// replayed there, never left queued.
	c.FailNode(1)
	for i := 0; i < n; i++ {
		pk := fmt.Sprintf("p%04d", i)
		if v, ok := c.Get("t", pk, "k"); !ok || string(v) != "v-"+pk {
			t.Fatalf("write lost on flapping replica: %s ok=%v v=%q", pk, ok, v)
		}
	}
}

// TestPersistentFaultWritesReplayOnClear drives writes into a replica
// whose every visit errors: the mutations hint, and clearing the fault
// profile replays them (a faulting node never passes through
// ReviveNode, which used to leave such hints stranded forever).
func TestPersistentFaultWritesReplayOnClear(t *testing.T) {
	c := newTestCluster(2, 2)
	defer c.Close()
	if err := c.InjectFault(0, &Fault{ErrRate: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		pk := fmt.Sprintf("p%02d", i)
		c.Put("t", pk, "k", []byte("v-"+pk))
	}
	if m := c.Metrics(); m.HintedWrites == 0 || m.UnderReplicatedWrites == 0 {
		t.Fatalf("writes against a persistent fault should hint, got %+v", m)
	}
	if err := c.InjectFault(0, nil); err != nil {
		t.Fatal(err)
	}
	c.FailNode(1) // force every read onto the previously faulty node
	for i := 0; i < 20; i++ {
		pk := fmt.Sprintf("p%02d", i)
		if v, ok := c.Get("t", pk, "k"); !ok || string(v) != "v-"+pk {
			t.Fatalf("hint not replayed on fault clear for %s: ok=%v v=%q", pk, ok, v)
		}
	}
}

// TestTransientFaultWritesRetry: a fault profile below the retry budget
// must not hint at all — the write lands on every replica by retrying.
func TestTransientFaultWritesRetry(t *testing.T) {
	c := newTestCluster(2, 2)
	defer c.Close()
	if err := c.InjectFault(0, &Fault{ErrRate: 0.5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		pk := fmt.Sprintf("p%02d", i)
		c.Put("t", pk, "k", []byte("v-"+pk))
	}
	if m := c.Metrics(); m.HintedWrites != 0 {
		t.Fatalf("transient faults should be retried, not hinted: %+v", m)
	}
	c.InjectFault(0, nil)
	c.FailNode(1)
	for i := 0; i < 20; i++ {
		pk := fmt.Sprintf("p%02d", i)
		if v, ok := c.Get("t", pk, "k"); !ok || string(v) != "v-"+pk {
			t.Fatalf("retried write missing on %s: ok=%v v=%q", pk, ok, v)
		}
	}
}

func TestTopologyGuards(t *testing.T) {
	c := newTestCluster(2, 2)
	defer c.Close()
	if err := c.FailNode(9); err == nil {
		t.Fatal("FailNode(9) should fail")
	}
	if err := c.AddNode(0); err == nil {
		t.Fatal("AddNode(0) should report duplicate")
	}
	if err := c.AddNode(-1); err == nil {
		t.Fatal("AddNode(-1) should fail")
	}
	if err := c.RemoveNode(1); err == nil {
		t.Fatal("RemoveNode below replication factor should fail")
	}
	if err := c.RemoveNode(7); err == nil {
		t.Fatal("RemoveNode(7) should fail")
	}
}

func TestRebalanceSerialized(t *testing.T) {
	c := NewCluster(Config{Machines: 2, Replication: 1, RebalanceRate: 1 << 10})
	defer c.Close()
	fillCluster(t, c, 30)
	if err := c.AddNode(2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode(3); err != ErrRebalancing {
		t.Fatalf("second AddNode during migration: %v", err)
	}
	if err := c.WaitRebalance(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode(3); err != nil {
		t.Fatalf("AddNode after migration: %v", err)
	}
	c.WaitRebalance()
}

func TestTopologyCommitHook(t *testing.T) {
	var mu sync.Mutex
	var committed [][]int
	c := NewCluster(Config{
		Machines: 2, Replication: 1, RebalanceRate: -1,
		OnTopologyCommit: func(nodes []int) error {
			mu.Lock()
			committed = append(committed, append([]int(nil), nodes...))
			mu.Unlock()
			return nil
		},
	})
	defer c.Close()
	fillCluster(t, c, 10)
	if err := c.AddNode(2); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitRebalance(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(committed) != 1 || len(committed[0]) != 3 {
		t.Fatalf("commit hook calls: %v", committed)
	}
}

func TestTopologyCommitFailureKeepsCopies(t *testing.T) {
	c := NewCluster(Config{
		Machines: 2, Replication: 1, RebalanceRate: -1,
		OnTopologyCommit: func([]int) error { return fmt.Errorf("disk full") },
	})
	defer c.Close()
	check := fillCluster(t, c, 20)
	if err := c.AddNode(2); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitRebalance(); err == nil {
		t.Fatal("WaitRebalance should surface the commit error")
	}
	check() // data still served, duplicates retained
}

func TestRebalanceDurableEngine(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{Machines: 2, Replication: 2, RebalanceRate: -1,
		Backend: disklog.Factory(dir, disklog.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	check := fillCluster(t, c, 30)
	if err := c.AddNode(2); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitRebalance(); err != nil {
		t.Fatal(err)
	}
	check()
	c.FailNode(0)
	check()
}

func TestTopologyInfo(t *testing.T) {
	c := newTestCluster(3, 2)
	defer c.Close()
	fillCluster(t, c, 30)
	info := c.Topology()
	if info.Replication != 2 || len(info.Nodes) != 3 || info.Partitions != 30 {
		t.Fatalf("topology: %+v", info)
	}
	var share float64
	for _, n := range info.Nodes {
		share += n.KeyShare
	}
	if share < 0.99 || share > 1.01 {
		t.Fatalf("key shares should sum to ~1, got %v", share)
	}
	if info.UnderReplicated != 0 {
		t.Fatalf("healthy cluster reports %d under-replicated partitions", info.UnderReplicated)
	}
	c.FailNode(1)
	info = c.Topology()
	if info.UnderReplicated == 0 {
		t.Fatal("down node should leave some partitions under-replicated")
	}
	if !info.Nodes[1].Down {
		t.Fatal("node 1 should report down")
	}
}

func TestRebalanceRateLimits(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	c := NewCluster(Config{Machines: 2, Replication: 1, RebalanceRate: 32 << 10})
	defer c.Close()
	// ~40 partitions × ~2 rows × ~10 bytes ≈ 1.5 KiB; at 32 KiB/s this
	// is well under a second but must take measurably longer than the
	// unthrottled case (which finishes in microseconds).
	fillCluster(t, c, 40)
	start := time.Now()
	if err := c.AddNode(2); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitRebalance(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 5*time.Millisecond {
		t.Fatalf("rate-limited rebalance finished suspiciously fast: %v", el)
	}
}
