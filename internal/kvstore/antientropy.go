package kvstore

// Background anti-entropy: the convergence backstop behind hinted
// handoff and read-repair. A sweep groups the cluster's partitions by
// replica owner set, has every live owner build a merkle-style digest
// tree over its copies (root over buckets over per-partition row
// digests — backend.DigestRows, so two engines holding identical rows
// digest identically regardless of engine type), and walks the trees
// top-down: equal roots clear a whole owner pair in one comparison,
// differing buckets narrow to the partitions actually divergent. Only
// those partitions are then repaired, under the write gate, by the
// convergence step this file also holds and the rebalancer shares
// (convergePartition): the live copies merge newest-row-wins by
// version stamp (stamp.go), and each winner reaches the owners that
// lack it through the stamp guard, checked at write time, so a hint
// delivered mid-sweep is never rolled back. The written bytes are paced
// by the same pacer and rate limit the rebalancer uses.
//
// Deletes are the known gap: the store keeps no tombstones, so a row
// deleted on one replica while another held it is resurrected by the
// merge (present beats absent — the comparator cannot distinguish
// "deleted" from "never arrived"). The query layer's tables are
// append-only, which is why the cluster has never needed tombstones.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"hgs/internal/backend"
)

// ErrRepairRunning reports a RepairPartitions overlapping an
// anti-entropy sweep already in progress.
var ErrRepairRunning = errors.New("kvstore: anti-entropy repair already running")

// RepairStats summarizes one anti-entropy sweep: how many partitions
// were found divergent and converged, and the rows/bytes written to
// stale or missing copies to do it. Bounded by the diverged share, not
// the dataset — a healthy cluster sweeps to {0, 0, 0}.
type RepairStats struct {
	Partitions int64 `json:"partitions"`
	Rows       int64 `json:"rows"`
	Bytes      int64 `json:"bytes"`
}

// aeBuckets is the merkle tree fan-out: partitions hash into 16
// buckets under the root, so one differing partition re-digests 1/16th
// of the leaf comparisons instead of all of them.
const aeBuckets = 16

// aeGroup is one replica set and the partitions it owns.
type aeGroup struct {
	ids   []int
	parts []partition
}

// ownerDigest is one owner's merkle tree over a group's partitions.
type ownerDigest struct {
	node    *storageNode
	leaves  map[partition]uint64
	buckets [aeBuckets]uint64
	root    uint64
}

// aeBucket places a partition in its merkle bucket by the top bits of
// the placement hash.
func aeBucket(p partition) int {
	return int((hashKey(p.table, p.pkey) >> 60) & (aeBuckets - 1))
}

// mixDigest chain-combines digests (FNV-1a step over the 64-bit value).
func mixDigest(h, d uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ (d >> i & 0xff)) * 1099511628211
	}
	return h
}

// RepairPartitions runs one full anti-entropy sweep and reports what it
// converged. Only one sweep runs at a time (ErrRepairRunning), and a
// sweep refuses to overlap a topology migration (ErrRebalancing) —
// placement is in flux and the rebalancer is already streaming.
func (c *Cluster) RepairPartitions() (RepairStats, error) {
	if !c.aeActive.CompareAndSwap(false, true) {
		return RepairStats{}, ErrRepairRunning
	}
	defer c.aeActive.Store(false)
	if c.Rebalancing() {
		return RepairStats{}, ErrRebalancing
	}
	c.aeRuns.Add(1)
	var stats RepairStats
	pace := pacer{rate: c.cfg.RebalanceRate}
	for _, g := range c.replicaGroups() {
		for _, p := range c.divergedPartitions(g) {
			rows, bytes := c.repairPartition(p)
			if rows > 0 {
				stats.Partitions++
				stats.Rows += rows
				stats.Bytes += bytes
			}
			pace.wait(bytes)
		}
	}
	c.aeParts.Add(stats.Partitions)
	c.aeRows.Add(stats.Rows)
	c.aeBytes.Add(stats.Bytes)
	return stats, nil
}

// antiEntropyLoop sweeps at the configured interval until Close. A tick
// overlapping an explicit RepairPartitions call or a rebalance is
// skipped — the next one covers whatever that pass missed.
func (c *Cluster) antiEntropyLoop(interval time.Duration) {
	defer c.bg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			c.RepairPartitions() //nolint:errcheck // busy/rebalancing ticks are skipped by design
		}
	}
}

// replicaGroups groups every partition in the cluster by owner set
// under the active ring, sorted for determinism.
func (c *Cluster) replicaGroups() []aeGroup {
	c.topoMu.RLock()
	r := c.ring
	c.topoMu.RUnlock()
	groups := make(map[string]*aeGroup)
	var buf [routeStack]int
	var keys []string
	for _, p := range c.allPartitions() {
		owners := append([]int(nil), r.Lookup(hashKey(p.table, p.pkey), buf[:0])...)
		sort.Ints(owners)
		gk := fmt.Sprint(owners)
		g := groups[gk]
		if g == nil {
			g = &aeGroup{ids: owners}
			groups[gk] = g
			keys = append(keys, gk)
		}
		g.parts = append(g.parts, p)
	}
	sort.Strings(keys)
	out := make([]aeGroup, 0, len(keys))
	for _, k := range keys {
		g := groups[k]
		sort.Slice(g.parts, func(i, j int) bool {
			if g.parts[i].table != g.parts[j].table {
				return g.parts[i].table < g.parts[j].table
			}
			return g.parts[i].pkey < g.parts[j].pkey
		})
		out = append(out, *g)
	}
	return out
}

// digestOwner builds one owner's merkle tree over the group's
// partitions. Returns nil for a down or torn-down owner — it cannot be
// compared (its missed writes sit in the hint queue for revive).
func (c *Cluster) digestOwner(id int, parts []partition) *ownerDigest {
	node := c.nodeAt(id)
	if node == nil || node.down.Load() {
		return nil
	}
	od := &ownerDigest{node: node, leaves: make(map[partition]uint64, len(parts))}
	dg, _ := node.be.(backend.Digester)
	for _, p := range parts {
		var d uint64
		node.mu.Lock()
		if node.closed {
			node.mu.Unlock()
			return nil
		}
		if dg != nil {
			d = dg.DigestPartition(p.table, p.pkey)
		} else {
			d = backend.DigestRows(node.be.ScanPrefix(p.table, p.pkey, ""))
		}
		node.mu.Unlock()
		od.leaves[p] = d
		od.buckets[aeBucket(p)] = mixDigest(od.buckets[aeBucket(p)], d)
	}
	for _, b := range od.buckets {
		od.root = mixDigest(od.root, b)
	}
	return od
}

// divergedPartitions compares the owners' merkle trees top-down and
// returns the partitions whose copies differ on at least one pair of
// live owners.
func (c *Cluster) divergedPartitions(g aeGroup) []partition {
	var ods []*ownerDigest
	for _, id := range g.ids {
		if od := c.digestOwner(id, g.parts); od != nil {
			ods = append(ods, od)
		}
	}
	if len(ods) < 2 {
		return nil
	}
	rootsEqual := true
	for _, od := range ods[1:] {
		if od.root != ods[0].root {
			rootsEqual = false
			break
		}
	}
	if rootsEqual {
		return nil
	}
	var out []partition
	for _, p := range g.parts {
		b := aeBucket(p)
		bucketEqual := true
		for _, od := range ods[1:] {
			if od.buckets[b] != ods[0].buckets[b] {
				bucketEqual = false
				break
			}
		}
		if bucketEqual {
			continue
		}
		for _, od := range ods[1:] {
			if od.leaves[p] != ods[0].leaves[p] {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// repairPartition converges one diverged partition among its live
// owners, under the write gate (no foreground write can interleave),
// and returns the rows and bytes written. The gate is released before
// the caller's pacer sleeps.
func (c *Cluster) repairPartition(p partition) (rows, bytes int64) {
	c.writeGate.Lock()
	defer c.writeGate.Unlock()
	var rt route
	c.writeRoute(p.table, p.pkey, &rt)
	return c.convergePartition(p, rt.nodes, rt.nodes, false)
}

// convergePartition is the one replica-convergence step, behind both
// the rebalancer's handoff (old owners → new owners) and anti-entropy
// repair (live owners → live owners). It scans the live copies on from,
// merges them newest-per-clustering-key (newestRows) and writes each
// winner to every node of to through the stamp guard (putIfNewer),
// checked against the row the target holds at write time: a hint
// delivery or write that landed after the scan is never rolled back. A
// down target gets the rows hinted when hintDown is set and is skipped
// otherwise. Caller holds the write gate. Returns the rows and bytes
// written or hinted.
func (c *Cluster) convergePartition(p partition, from, to []*storageNode, hintDown bool) (rows, bytes int64) {
	var copies []scanResp
	for _, n := range from {
		n.mu.Lock()
		if !n.closed && !n.down.Load() {
			copies = append(copies, scanResp{n, n.be.ScanPrefix(p.table, p.pkey, "")})
		}
		n.mu.Unlock()
	}
	for _, r := range newestRows(copies) {
		for _, n := range to {
			if c.convergeRow(n, p, r, hintDown) {
				rows++
				bytes += int64(len(r.CKey) + len(r.Value))
			}
		}
	}
	return rows, bytes
}

// convergeRow writes one merged row to a convergence target and reports
// whether it was written or hinted. queueHint re-checks down under
// hintMu, so a concurrent revive cannot strand the hint: a row it
// refuses is applied to the now-live engine.
func (c *Cluster) convergeRow(n *storageNode, p partition, r Row, hintDown bool) bool {
	if n.down.Load() {
		if !hintDown {
			return false
		}
		if n.queueHint(hint{op: hintPut, table: p.table, pkey: p.pkey, ckey: r.CKey, value: r.Value}) {
			c.hintedWrites.Add(1)
			return true
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.closed && putIfNewer(n.be, p.table, p.pkey, r.CKey, r.Value)
}

// pacer holds background streaming (rebalance, anti-entropy) to
// Config.RebalanceRate bytes per second, sleeping off the accrued debt
// in installments of at least 2 ms; a non-positive rate never sleeps.
type pacer struct {
	rate int64
	debt time.Duration
}

// wait charges n streamed bytes and sleeps once the debt is due.
func (p *pacer) wait(n int64) {
	if p.rate <= 0 || n <= 0 {
		return
	}
	p.debt += time.Duration(n) * time.Second / time.Duration(p.rate)
	if p.debt > 2*time.Millisecond {
		time.Sleep(p.debt)
		p.debt = 0
	}
}
