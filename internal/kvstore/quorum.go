package kvstore

// The replica-visit loop every read goes through, quorum merging and
// asynchronous read-repair.
//
// A read consults ReadQuorum replicas (one by default). With R > 1 it
// merges their answers by version stamp (stamp.go) and returns the
// newest. Any replica observed stale — an older stamp, or the row
// missing entirely — gets the winning version queued for background
// repair. Repairs are applied by a single worker goroutine under the
// write gate's read side (so they respect the rebalancer's barriers)
// and are stamp-guarded, so a repair racing a newer foreground write
// can never roll a row back. The repair queue is bounded and lossy:
// a dropped repair is re-detected by the next quorum read of the key,
// or converged by anti-entropy.

import (
	"bytes"
	"context"
	"sort"
	"sync/atomic"
)

// repairQueueDepth bounds the read-repair backlog. Overflow drops the
// task (anti-entropy is the backstop), never blocks the read path.
const repairQueueDepth = 1024

// repairTask is one stale row observed by a quorum read: write value
// (stored form, stamp included) to node unless the node has moved on.
type repairTask struct {
	table, pkey, ckey string
	value             []byte
	node              *storageNode
}

// newerThan orders two stored versions: the higher stamp wins, and a
// stamp tie (only possible for pre-envelope rows, which all read as
// stamp 0) breaks by byte order so equal-stamp divergence still
// converges to one deterministic winner everywhere.
func newerThan(a, b []byte) bool {
	sa, sb := stampOf(a), stampOf(b)
	if sa != sb {
		return sa > sb
	}
	return bytes.Compare(a, b) > 0
}

// enqueueRepair hands a stale-replica observation to the repair worker,
// dropping it if the queue is full.
func (c *Cluster) enqueueRepair(t repairTask) {
	c.pendingRepairs.Add(1)
	select {
	case c.repairCh <- t:
	default:
		c.pendingRepairs.Add(-1)
	}
}

// PendingRepairs returns the number of read-repair tasks queued but not
// yet applied — tests quiesce on it reaching zero.
func (c *Cluster) PendingRepairs() int64 { return c.pendingRepairs.Load() }

// repairWorker drains the read-repair queue until Close.
func (c *Cluster) repairWorker() {
	defer c.bg.Done()
	for {
		select {
		case <-c.stopCh:
			return
		case t := <-c.repairCh:
			c.applyRepair(t)
			c.pendingRepairs.Add(-1)
		}
	}
}

// applyRepair writes the winning version to the stale replica, unless
// the replica no longer owns the partition (topology moved on), is down
// (revive replays hints instead), or already holds something at least
// as new (a foreground write landed since the read observed staleness).
// Repair traffic is background work: it charges no latency and no
// logical counters beyond Metrics.ReadRepairs.
func (c *Cluster) applyRepair(t repairTask) {
	c.writeGate.RLock()
	defer c.writeGate.RUnlock()
	var rt route
	c.writeRoute(t.table, t.pkey, &rt)
	owns := false
	for _, n := range rt.nodes {
		if n == t.node {
			owns = true
			break
		}
	}
	if !owns || t.node.down.Load() {
		return
	}
	t.node.mu.Lock()
	defer t.node.mu.Unlock()
	if t.node.closed || t.node.down.Load() {
		return
	}
	if cur, ok := t.node.be.Get(t.table, t.pkey, t.ckey); ok && !newerThan(t.value, cur) {
		return
	}
	t.node.be.Put(t.table, t.pkey, t.ckey, t.value)
	c.readRepairs.Add(1)
}

// visitReplicas is the one replica-visit loop behind every read: a
// point Get or scan (want = R, one by default), each key of a quorum
// batch, and the per-key retry after a node lost a whole R=1 batch
// (exclude = that node). Starting at the round-robin rotation point
// (this is where r>1 increases read capacity, Fig 12c) it visits the
// route's replicas clockwise, skipping exclude, until want of them
// answered or none is left. visit runs on an answering replica under
// its service lock (serveNode) and reports the bytes to charge. Every
// refused visit counts a Failover; an answer that had to come from a
// replica beyond the rotation's first want — always the case once
// exclude has failed — counts one DegradedRead.
func (c *Cluster) visitReplicas(ctx context.Context, rt *route, want int, exclude *storageNode, cs *CallStats, visit func(n *storageNode) (bytes int)) {
	n := len(rt.nodes)
	start := 0
	if n > 1 {
		start = int(atomic.AddUint64(&c.rr, 1) % uint64(n))
	}
	answered, failed := 0, 0
	for i := 0; i < n && answered < want; i++ {
		node := rt.nodes[(start+i)%n]
		if node == exclude {
			continue
		}
		if c.serveNode(ctx, node, cs, visit) != nil {
			failed++
			continue
		}
		answered++
	}
	c.failovers.Add(int64(failed))
	if answered > 0 && (failed > 0 || exclude != nil) {
		c.degradedReads.Add(1)
	}
}

// replicaResp is one replica's answer to a point read.
type replicaResp struct {
	node   *storageNode
	stored []byte
	found  bool
}

// readKey serves one key from up to want replicas (visitReplicas) and
// merges their answers by stamp; it counts one logical read whether or
// not any replica answered. Caller holds readGate.RLock.
func (c *Cluster) readKey(ctx context.Context, ref KeyRef, want int, exclude *storageNode, cs *CallStats) GetResult {
	var rt route
	c.readRoute(ref.Table, ref.PKey, &rt)
	var buf [routeStack]replicaResp
	got := buf[:0]
	c.visitReplicas(ctx, &rt, want, exclude, cs, func(n *storageNode) int {
		stored, found := n.be.Get(ref.Table, ref.PKey, ref.CKey)
		got = append(got, replicaResp{node: n, stored: stored, found: found})
		return len(stored)
	})
	var res GetResult
	if stored, found := c.mergeGet(got, ref); found {
		_, res.Value = splitStamp(stored)
		res.Found = true
	}
	c.countReads(cs, 1, len(res.Value))
	return res
}

// mergeGet picks the newest version among the replica answers and
// queues read-repair for every replica that returned an older version
// or no row at all. A key absent on every consulted replica merges to
// not-found (deletes carry no tombstones; see the anti-entropy notes).
func (c *Cluster) mergeGet(got []replicaResp, ref KeyRef) ([]byte, bool) {
	var win []byte
	found := false
	for _, g := range got {
		if !g.found {
			continue
		}
		if !found || newerThan(g.stored, win) {
			win = g.stored
			found = true
		}
	}
	if !found {
		return nil, false
	}
	for _, g := range got {
		if !g.found || newerThan(win, g.stored) {
			c.enqueueRepair(repairTask{table: ref.Table, pkey: ref.PKey, ckey: ref.CKey, value: win, node: g.node})
		}
	}
	return win, true
}

// scanResp is one replica's answer to a prefix scan.
type scanResp struct {
	node *storageNode
	rows []Row
}

// readScan serves one prefix scan from up to want replicas
// (visitReplicas), merges their rows by stamp and strips the stamps;
// it counts one logical read whether or not any replica answered.
// Caller holds readGate.RLock.
func (c *Cluster) readScan(ctx context.Context, ref ScanRef, want int, exclude *storageNode, cs *CallStats) []Row {
	var rt route
	c.readRoute(ref.Table, ref.PKey, &rt)
	var buf [routeStack]scanResp
	got := buf[:0]
	c.visitReplicas(ctx, &rt, want, exclude, cs, func(n *storageNode) int {
		rows := n.be.ScanPrefix(ref.Table, ref.PKey, ref.Prefix)
		got = append(got, scanResp{node: n, rows: rows})
		return rowBytes(rows)
	})
	rows := c.mergeScan(got, ref)
	c.countReads(cs, 1, unwrapRows(rows))
	return rows
}

// mergeScan merges the replicas' scans per clustering key by stamp: for
// every row, the newest version any consulted replica holds wins, and
// replicas missing it (or holding an older one) get it queued for
// repair. A row present on one replica and absent on another is treated
// as present — the store keeps no tombstones, so a scan cannot
// distinguish "deleted here" from "never arrived here". Returns stored
// (stamped) rows in clustering order.
func (c *Cluster) mergeScan(got []scanResp, ref ScanRef) []Row {
	if len(got) == 0 {
		return nil
	}
	if len(got) == 1 {
		return got[0].rows
	}
	win := make(map[string][]byte)
	for _, g := range got {
		for _, r := range g.rows {
			if cur, ok := win[r.CKey]; !ok || newerThan(r.Value, cur) {
				win[r.CKey] = r.Value
			}
		}
	}
	for _, g := range got {
		have := make(map[string][]byte, len(g.rows))
		for _, r := range g.rows {
			have[r.CKey] = r.Value
		}
		for ck, v := range win {
			if cur, ok := have[ck]; !ok || newerThan(v, cur) {
				c.enqueueRepair(repairTask{table: ref.Table, pkey: ref.PKey, ckey: ck, value: v, node: g.node})
			}
		}
	}
	out := make([]Row, 0, len(win))
	for ck, v := range win {
		out = append(out, Row{CKey: ck, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CKey < out[j].CKey })
	return out
}
