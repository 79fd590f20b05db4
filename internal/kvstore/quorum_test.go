package kvstore

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hgs/internal/backend"
	"hgs/internal/backend/disklog"
	"hgs/internal/backend/memtable"
)

// engineOf reaches into a node's engine directly — tests create
// divergence and inspect per-replica state without the routing layer.
func engineOf(t *testing.T, c *Cluster, id int) *storageNode {
	t.Helper()
	n := c.nodeAt(id)
	if n == nil {
		t.Fatalf("node %d not in cluster", id)
	}
	return n
}

// drainRepairs waits until the background read-repair queue is empty.
func drainRepairs(t *testing.T, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.PendingRepairs() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("read-repair queue did not drain: %d pending", c.PendingRepairs())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestQuorumConfigClamping(t *testing.T) {
	c := NewCluster(Config{Machines: 3, Replication: 3, ReadQuorum: 9, WriteQuorum: -5})
	defer c.Close()
	if cfg := c.Config(); cfg.ReadQuorum != 3 || cfg.WriteQuorum != 1 {
		t.Fatalf("quorum = %d,%d, want clamped 3,1", cfg.ReadQuorum, cfg.WriteQuorum)
	}
	d := NewCluster(Config{Machines: 3, Replication: 3})
	defer d.Close()
	if cfg := d.Config(); cfg.ReadQuorum != 1 || cfg.WriteQuorum != 3 {
		t.Fatalf("zero-valued quorum knobs: %d,%d, want defaults 1,3", cfg.ReadQuorum, cfg.WriteQuorum)
	}
}

func TestQuorumReadReturnsNewestAndRepairs(t *testing.T) {
	c := NewCluster(Config{Machines: 3, Replication: 3, ReadQuorum: 3})
	defer c.Close()
	c.Put("t", "p", "k", []byte("new"))

	// Roll one replica back to a stale version (stamp 1 orders before
	// any live write) and delete the row from another.
	ids := c.ReplicasOf("t", "p")
	stale := engineOf(t, c, ids[1])
	stale.mu.Lock()
	stale.be.Put("t", "p", "k", wrapStamp(1, []byte("old")))
	stale.mu.Unlock()
	missing := engineOf(t, c, ids[2])
	missing.mu.Lock()
	missing.be.Delete("t", "p", "k")
	missing.mu.Unlock()

	for i := 0; i < 3; i++ { // every rotation start must agree
		got, ok := c.Get("t", "p", "k")
		if !ok || string(got) != "new" {
			t.Fatalf("quorum Get #%d = %q,%v, want \"new\"", i, got, ok)
		}
	}
	drainRepairs(t, c)
	if c.Metrics().ReadRepairs == 0 {
		t.Fatal("divergent replicas observed but no read-repair counted")
	}
	for _, id := range ids {
		n := engineOf(t, c, id)
		n.mu.Lock()
		v, ok := n.be.Get("t", "p", "k")
		n.mu.Unlock()
		if !ok {
			t.Fatalf("node %d still missing the row after repair", id)
		}
		if _, payload := splitStamp(v); string(payload) != "new" {
			t.Fatalf("node %d = %q after repair, want \"new\"", id, payload)
		}
	}
}

func TestQuorumScanMergesNewestAcrossReplicas(t *testing.T) {
	c := NewCluster(Config{Machines: 3, Replication: 3, ReadQuorum: 3})
	defer c.Close()
	c.Put("t", "p", "a", []byte("a1"))
	c.Put("t", "p", "b", []byte("b1"))

	ids := c.ReplicasOf("t", "p")
	// One replica misses row b entirely, another holds a stale a.
	n1 := engineOf(t, c, ids[0])
	n1.mu.Lock()
	n1.be.Delete("t", "p", "b")
	n1.mu.Unlock()
	n2 := engineOf(t, c, ids[1])
	n2.mu.Lock()
	n2.be.Put("t", "p", "a", wrapStamp(1, []byte("a0")))
	n2.mu.Unlock()

	for i := 0; i < 3; i++ {
		rows := c.ScanPartition("t", "p")
		if len(rows) != 2 || string(rows[0].Value) != "a1" || string(rows[1].Value) != "b1" {
			t.Fatalf("quorum scan #%d = %+v, want merged newest [a1 b1]", i, rows)
		}
	}
	drainRepairs(t, c)
	for _, id := range ids {
		n := engineOf(t, c, id)
		n.mu.Lock()
		rows := n.be.ScanPrefix("t", "p", "")
		n.mu.Unlock()
		if len(rows) != 2 {
			t.Fatalf("node %d has %d rows after repair, want 2", id, len(rows))
		}
	}
}

func TestQuorumMultiGetMergesAndRepairs(t *testing.T) {
	c := NewCluster(Config{Machines: 3, Replication: 3, ReadQuorum: 2})
	defer c.Close()
	refs := make([]KeyRef, 8)
	for i := range refs {
		refs[i] = KeyRef{Table: "t", PKey: fmt.Sprintf("p%d", i%3), CKey: fmt.Sprintf("k%d", i)}
		c.Put(refs[i].Table, refs[i].PKey, refs[i].CKey, []byte(fmt.Sprintf("v%d", i)))
	}
	// Knock one replica of every key back to a stale version.
	for i, ref := range refs {
		ids := c.ReplicasOf(ref.Table, ref.PKey)
		n := engineOf(t, c, ids[i%len(ids)])
		n.mu.Lock()
		n.be.Put(ref.Table, ref.PKey, ref.CKey, wrapStamp(1, []byte("stale")))
		n.mu.Unlock()
	}
	// R=2 of 3: a single batch may consult the one stale replica pair —
	// but the newest version must win whenever the read sees it, and
	// repeated reads repair toward convergence.
	for round := 0; round < 6; round++ {
		out := c.MultiGet(refs)
		for i, res := range out {
			if !res.Found {
				t.Fatalf("round %d: ref %d not found", round, i)
			}
		}
		drainRepairs(t, c)
	}
	out := c.MultiGet(refs)
	for i, res := range out {
		want := fmt.Sprintf("v%d", i)
		if !res.Found || string(res.Value) != want {
			t.Fatalf("after repair rounds: ref %d = %q,%v want %q", i, res.Value, res.Found, want)
		}
	}
}

func TestQuorumWriteCompletesAllReplicasInBackground(t *testing.T) {
	c := NewCluster(Config{Machines: 3, Replication: 3, WriteQuorum: 1})
	for i := 0; i < 50; i++ {
		c.Put("t", fmt.Sprintf("p%d", i), "k", []byte("v"))
	}
	// Close barriers on the write gate, so every background replica
	// apply has landed by the time it returns.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		pkey := fmt.Sprintf("p%d", i)
		for _, id := range c.ReplicasOf("t", pkey) {
			n := c.nodeAt(id)
			v, ok := n.be.Get("t", pkey, "k")
			if !ok {
				t.Fatalf("replica %d of %s missing the row after quorum write", id, pkey)
			}
			if _, payload := splitStamp(v); string(payload) != "v" {
				t.Fatalf("replica %d of %s = %q", id, pkey, payload)
			}
		}
	}
}

func TestQuorumWriteDownReplicaStillHints(t *testing.T) {
	c := NewCluster(Config{Machines: 3, Replication: 3, WriteQuorum: 2})
	defer c.Close()
	ids := c.ReplicasOf("t", "p")
	if err := c.FailNode(ids[2]); err != nil {
		t.Fatal(err)
	}
	c.Put("t", "p", "k", []byte("v"))
	// Put returns after W=2 acks; barrier on the write gate so the
	// background tail has queued the hint before we revive.
	c.writeGate.Lock()
	c.writeGate.Unlock() //nolint:staticcheck // empty critical section is the barrier
	if err := c.ReviveNode(ids[2]); err != nil {
		t.Fatal(err)
	}
	n := engineOf(t, c, ids[2])
	n.mu.Lock()
	v, ok := n.be.Get("t", "p", "k")
	n.mu.Unlock()
	if !ok {
		t.Fatal("revived replica missing hinted quorum write")
	}
	if _, payload := splitStamp(v); string(payload) != "v" {
		t.Fatalf("revived replica = %q", payload)
	}
	m := c.Metrics()
	if m.HintedWrites == 0 || m.UnderReplicatedWrites == 0 {
		t.Fatalf("hinted/under-replicated not counted: %+v", m)
	}
}

func TestReplayHintDoesNotRollBackNewerRow(t *testing.T) {
	c := newTestCluster(1, 1)
	defer c.Close()
	n := c.nodeList()[0]
	n.be.Put("t", "p", "k", wrapStamp(10, []byte("new")))
	replayHint(n.be, hint{op: hintPut, table: "t", pkey: "p", ckey: "k", value: wrapStamp(5, []byte("old"))})
	v, _ := n.be.Get("t", "p", "k")
	if _, payload := splitStamp(v); string(payload) != "new" {
		t.Fatalf("stale hint replay rolled the row back to %q", payload)
	}
	replayHint(n.be, hint{op: hintPut, table: "t", pkey: "p", ckey: "k", value: wrapStamp(11, []byte("newer"))})
	v, _ = n.be.Get("t", "p", "k")
	if _, payload := splitStamp(v); string(payload) != "newer" {
		t.Fatalf("newer hint replay skipped: %q", payload)
	}
}

func TestAntiEntropyConvergesDivergedReplicas(t *testing.T) {
	c := NewCluster(Config{Machines: 3, Replication: 3})
	defer c.Close()
	for i := 0; i < 10; i++ {
		c.Put("t", fmt.Sprintf("p%d", i%3), fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	// Healthy cluster: a sweep finds nothing and streams nothing.
	stats, err := c.RepairPartitions()
	if err != nil {
		t.Fatal(err)
	}
	if stats != (RepairStats{}) {
		t.Fatalf("healthy sweep repaired %+v, want zero", stats)
	}

	// Diverge one replica of p1: stale row + missing row.
	ids := c.ReplicasOf("t", "p1")
	n := engineOf(t, c, ids[0])
	n.mu.Lock()
	n.be.Put("t", "p1", "k1", wrapStamp(1, []byte("stale")))
	n.be.Delete("t", "p1", "k4")
	n.mu.Unlock()

	stats, err = c.RepairPartitions()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Partitions != 1 {
		t.Fatalf("sweep repaired %d partitions, want exactly the diverged one", stats.Partitions)
	}
	if stats.Rows == 0 || stats.Bytes == 0 {
		t.Fatalf("sweep streamed nothing: %+v", stats)
	}
	// All replicas byte-identical now; a second sweep is a no-op.
	var want []Row
	for i, id := range ids {
		node := engineOf(t, c, id)
		node.mu.Lock()
		rows := node.be.ScanPrefix("t", "p1", "")
		node.mu.Unlock()
		if i == 0 {
			want = rows
			continue
		}
		if len(rows) != len(want) {
			t.Fatalf("node %d has %d rows, first replica %d", id, len(rows), len(want))
		}
		for j := range rows {
			if rows[j].CKey != want[j].CKey || !bytes.Equal(rows[j].Value, want[j].Value) {
				t.Fatalf("replicas differ at row %d: %q vs %q", j, rows[j], want[j])
			}
		}
	}
	stats, err = c.RepairPartitions()
	if err != nil {
		t.Fatal(err)
	}
	if stats != (RepairStats{}) {
		t.Fatalf("second sweep repaired %+v, want zero", stats)
	}
	m := c.Metrics()
	if m.AntiEntropyRuns != 3 || m.AntiEntropyPartitions != 1 {
		t.Fatalf("anti-entropy metrics %+v", m)
	}
}

func TestAntiEntropySkipsDownReplica(t *testing.T) {
	c := NewCluster(Config{Machines: 3, Replication: 3})
	defer c.Close()
	c.Put("t", "p", "k", []byte("v"))
	ids := c.ReplicasOf("t", "p")
	if err := c.FailNode(ids[0]); err != nil {
		t.Fatal(err)
	}
	// The down replica cannot be compared or repaired; the live pair is
	// consistent, so the sweep does nothing — and must not touch the
	// down node's engine.
	stats, err := c.RepairPartitions()
	if err != nil {
		t.Fatal(err)
	}
	if stats != (RepairStats{}) {
		t.Fatalf("sweep with a down replica repaired %+v", stats)
	}
}

// scanHookEngine wraps a node engine so a test can act inside a scan.
// Embedding the interface hides backend.Digester, so the anti-entropy
// digest pass scans too.
type scanHookEngine struct {
	backend.Backend
	scans  int
	onScan func(scan int)
}

func (e *scanHookEngine) ScanPrefix(table, pkey, prefix string) []Row {
	e.scans++
	if e.onScan != nil {
		e.onScan(e.scans)
	}
	return e.Backend.ScanPrefix(table, pkey, prefix)
}

// A hint delivered between the sweep's scan of a replica and its write
// to that replica must survive: the write is guarded against the row
// present at write time, not the one scanned.
func TestRepairKeepsRowLandedAfterScan(t *testing.T) {
	engines := map[int]*scanHookEngine{}
	c := NewCluster(Config{Machines: 2, Replication: 2, Backend: func(id int) (backend.Backend, error) {
		engines[id] = &scanHookEngine{Backend: memtable.New()}
		return engines[id], nil
	}})
	defer c.Close()
	ids := c.ReplicasOf("t", "p")
	other, src := engineOf(t, c, ids[0]), engineOf(t, c, ids[1])
	other.be.Put("t", "p", "k", wrapStamp(3, []byte("stale")))
	src.be.Put("t", "p", "k", wrapStamp(5, []byte("old")))
	// The sweep scans ids[0] before ids[1]. On the source's second scan
	// (the first is the digest pass) a newer row reaches the other
	// replica, which the repair has already scanned.
	engines[ids[1]].onScan = func(scan int) {
		if scan != 2 {
			return
		}
		other.mu.Lock()
		replayHint(other.be, hint{op: hintPut, table: "t", pkey: "p", ckey: "k", value: wrapStamp(7, []byte("newest"))})
		other.mu.Unlock()
	}
	if _, err := c.RepairPartitions(); err != nil {
		t.Fatal(err)
	}
	if engines[ids[1]].scans < 2 {
		t.Fatalf("source scanned %d times, want the digest and the repair scan", engines[ids[1]].scans)
	}
	other.mu.Lock()
	v, _ := other.be.Get("t", "p", "k")
	other.mu.Unlock()
	if s := stampOf(v); s != 7 {
		t.Fatalf("repair rolled the replica back to stamp %d, want 7", s)
	}
}

func TestRepairPartitionsGuards(t *testing.T) {
	c := newTestCluster(3, 2)
	defer c.Close()
	c.aeActive.Store(true)
	if _, err := c.RepairPartitions(); !errors.Is(err, ErrRepairRunning) {
		t.Fatalf("overlapping sweep: err = %v, want ErrRepairRunning", err)
	}
	c.aeActive.Store(false)
	c.rebActive.Store(true)
	if _, err := c.RepairPartitions(); !errors.Is(err, ErrRebalancing) {
		t.Fatalf("sweep during rebalance: err = %v, want ErrRebalancing", err)
	}
	c.rebActive.Store(false)
}

func TestAntiEntropyBackgroundLoop(t *testing.T) {
	c := NewCluster(Config{Machines: 3, Replication: 3, AntiEntropyInterval: 2 * time.Millisecond})
	defer c.Close()
	c.Put("t", "p", "k", []byte("v"))
	ids := c.ReplicasOf("t", "p")
	n := engineOf(t, c, ids[0])
	n.mu.Lock()
	n.be.Delete("t", "p", "k")
	n.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n.mu.Lock()
		_, ok := n.be.Get("t", "p", "k")
		n.mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background anti-entropy loop never converged the diverged replica")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInMemoryHintsDieWithProcess documents the pre-durable-hints
// failure mode this PR closes: without a HintDir, a hint queued for a
// down replica lives only in memory, so a restart silently loses the
// write on that replica (divergence until anti-entropy finds it).
func TestInMemoryHintsDieWithProcess(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Machines: 3, Replication: 2, Backend: disklog.Factory(dir, disklog.Options{})}
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := c.ReplicasOf("t", "p")
	if err := c.FailNode(ids[1]); err != nil {
		t.Fatal(err)
	}
	c.Put("t", "p", "k", []byte("v"))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	n := engineOf(t, c2, ids[1])
	n.mu.Lock()
	_, ok := n.be.Get("t", "p", "k")
	n.mu.Unlock()
	if ok {
		t.Fatal("in-memory hint unexpectedly survived the restart — divergence window closed?")
	}
}

// TestDurableHintsSurviveReopen is the acceptance test for the durable
// hint log: the same scenario as TestInMemoryHintsDieWithProcess, but
// with a HintDir the queued hint is replayed at reopen and the replica
// converges. On pre-PR code (no hint log) this fails.
func TestDurableHintsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Machines:    3,
		Replication: 2,
		Backend:     disklog.Factory(dir, disklog.Options{}),
		HintDir:     filepath.Join(dir, "hints"),
	}
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := c.ReplicasOf("t", "p")
	if err := c.FailNode(ids[1]); err != nil {
		t.Fatal(err)
	}
	c.Put("t", "p", "k", []byte("v"))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// The hint was replayed straight into the engine at open; the node
	// starts live and every read path sees the row.
	n := engineOf(t, c2, ids[1])
	n.mu.Lock()
	v, ok := n.be.Get("t", "p", "k")
	n.mu.Unlock()
	if !ok {
		t.Fatal("durable hint was not replayed on reopen")
	}
	if _, payload := splitStamp(v); string(payload) != "v" {
		t.Fatalf("replayed row = %q, want \"v\"", payload)
	}
	if got, ok := c2.Get("t", "p", "k"); !ok || string(got) != "v" {
		t.Fatalf("Get after reopen = %q,%v", got, ok)
	}
	// The replayed log restarts empty: a second reopen has nothing to do.
	if err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "hints", hintFileName(ids[1]))
	if fi, err := os.Stat(log); err != nil || fi.Size() != 0 {
		t.Fatalf("hint log not truncated after replay: size=%v err=%v", fi, err)
	}
}

func TestDurableHintReplayIsStampGuarded(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Machines:    3,
		Replication: 2,
		Backend:     disklog.Factory(dir, disklog.Options{}),
		HintDir:     filepath.Join(dir, "hints"),
	}
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := c.ReplicasOf("t", "p")
	if err := c.FailNode(ids[1]); err != nil {
		t.Fatal(err)
	}
	c.Put("t", "p", "k", []byte("old")) // hinted to the down replica
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// A newer version landed on the replica out of band (e.g. repair in
	// a previous life): replay must not roll it back.
	c1, err := Open(Config{Machines: 3, Replication: 2, Backend: disklog.Factory(dir, disklog.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	n := engineOf(t, c1, ids[1])
	n.mu.Lock()
	n.be.Put("t", "p", "k", wrapStamp(^uint64(0), []byte("newer")))
	n.mu.Unlock()
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	n = engineOf(t, c2, ids[1])
	n.mu.Lock()
	v, _ := n.be.Get("t", "p", "k")
	n.mu.Unlock()
	if _, payload := splitStamp(v); string(payload) != "newer" {
		t.Fatalf("stale hint replay rolled the replica back to %q", payload)
	}
}

func TestHintLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node-000.hints")
	hl, pending, err := openHintLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh log has %d pending hints", len(pending))
	}
	hl.append(hint{op: hintPut, table: "t", pkey: "p", ckey: "a", value: []byte("one")})
	hl.append(hint{op: hintDelete, table: "t", pkey: "p", ckey: "b"})
	hl.append(hint{op: hintDrop, table: "t", pkey: "q"})
	if err := hl.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail mid-record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	hl2, pending, err := openHintLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer hl2.Close()
	if len(pending) != 2 {
		t.Fatalf("recovered %d hints past a torn tail, want the 2 intact ones", len(pending))
	}
	if pending[0].op != hintPut || pending[0].ckey != "a" || string(pending[0].value) != "one" {
		t.Fatalf("record 0 decoded wrong: %+v", pending[0])
	}
	if pending[1].op != hintDelete || pending[1].ckey != "b" {
		t.Fatalf("record 1 decoded wrong: %+v", pending[1])
	}
	if fi, _ := os.Stat(path); fi.Size() == int64(len(data)-3) {
		t.Fatal("torn tail was not truncated")
	}
}

// TestHintLogGoldenBytes pins the exact bytes of one hint record as the
// hint log wrote them before it moved onto internal/reclog: pending
// hints are recovery data, so logs left by older processes must keep
// replaying.
func TestHintLogGoldenBytes(t *testing.T) {
	const golden = "26000000" + "2a9fb2eb" + // payload length, CRC32
		"00" + "06000000" + "64656c746173" + "05000000" + "74302f7331" + // put, "deltas", "t0/s1"
		"05000000" + "64332f7030" + "05000000" + "76616c7565" // "d3/p0", "value"
	path := filepath.Join(t.TempDir(), "node-000.hints")
	hl, _, err := openHintLog(path)
	if err != nil {
		t.Fatal(err)
	}
	want := hint{op: hintPut, table: "deltas", pkey: "t0/s1", ckey: "d3/p0", value: []byte("value")}
	hl.append(want)
	hl.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != golden {
		t.Fatalf("hint record encodes as\n %s, want\n %s", got, golden)
	}
	hl, pending, err := openHintLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer hl.Close()
	if len(pending) != 1 || !reflect.DeepEqual(pending[0], want) {
		t.Fatalf("golden record decodes as %+v", pending)
	}
}

func TestHintLogCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node-000.hints")
	hl, _, err := openHintLog(path)
	if err != nil {
		t.Fatal(err)
	}
	hl.append(hint{op: hintPut, table: "t", pkey: "p", ckey: "a", value: []byte("one")})
	hl.append(hint{op: hintPut, table: "t", pkey: "p", ckey: "b", value: []byte("two")})
	if err := hl.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // flip a payload byte of the second record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, pending, err := openHintLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].ckey != "a" {
		t.Fatalf("CRC-failed record not dropped: %+v", pending)
	}
}

func TestRemovedNodeHintLogDeleted(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{Machines: 4, Replication: 2, HintDir: filepath.Join(dir, "hints")})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Put("t", "p", "k", []byte("v"))
	log := filepath.Join(dir, "hints", hintFileName(3))
	if _, err := os.Stat(log); err != nil {
		t.Fatalf("hint log missing before removal: %v", err)
	}
	if err := c.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitRebalance(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(log); !os.IsNotExist(err) {
		t.Fatalf("retired node's hint log still on disk: %v", err)
	}
}
