package kvstore

// Background anti-entropy: the convergence backstop behind hinted
// handoff and read-repair. A sweep groups the cluster's partitions by
// replica owner set, has every live owner build a merkle-style digest
// tree over its copies (root over buckets over per-partition row
// digests — backend.DigestRows, so two engines holding identical rows
// digest identically regardless of engine type), and walks the trees
// top-down: equal roots clear a whole owner pair in one comparison,
// differing buckets narrow to the partitions actually divergent. Only
// those partitions are then repaired — each one's live copies are
// merged newest-row-wins by version stamp (stamp.go) and the losers
// rewritten — under the write gate, with the streamed bytes paced by
// the same rate limit the rebalancer uses.
//
// Deletes are the known gap: the store keeps no tombstones, so a row
// deleted on one replica while another held it is resurrected by the
// merge (present beats absent — the comparator cannot distinguish
// "deleted" from "never arrived"). The query layer's tables are
// append-only, which is why the cluster has never needed tombstones.

import (
	"errors"
	"sort"
	"strconv"
	"time"

	"hgs/internal/backend"
)

// ErrRepairRunning reports a RepairPartitions overlapping an
// anti-entropy sweep already in progress.
var ErrRepairRunning = errors.New("kvstore: anti-entropy repair already running")

// RepairStats summarizes one anti-entropy sweep: how many partitions
// were found divergent and converged, and the rows/bytes streamed to
// do it. Bounded by the diverged share, not the dataset — a healthy
// cluster sweeps to {0, 0, 0}.
type RepairStats struct {
	Partitions int64 `json:"partitions"`
	Rows       int64 `json:"rows"`
	Bytes      int64 `json:"bytes"`
}

// aeBuckets is the merkle tree fan-out: partitions hash into 16
// buckets under the root, so one differing partition re-digests 1/16th
// of the leaf comparisons instead of all of them.
const aeBuckets = 16

type aePartition struct{ table, pkey string }

// aeGroup is one replica set and the partitions it owns.
type aeGroup struct {
	ids   []int
	parts []aePartition
}

// ownerDigest is one owner's merkle tree over a group's partitions.
type ownerDigest struct {
	node    *storageNode
	leaves  map[aePartition]uint64
	buckets [aeBuckets]uint64
	root    uint64
}

// aeBucket places a partition in its merkle bucket by the top bits of
// the placement hash.
func aeBucket(p aePartition) int {
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
	var debt time.Duration
	rate := c.cfg.RebalanceRate
	for _, g := range c.replicaGroups() {
		for _, p := range c.divergedPartitions(g) {
			n := c.repairPartition(p.table, p.pkey, &stats)
			if rate > 0 && n > 0 {
				debt += time.Duration(n) * time.Second / time.Duration(rate)
				if debt > 2*time.Millisecond {
					time.Sleep(debt)
					debt = 0
				}
			}
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

// replicaGroups enumerates every partition in the cluster and groups
// them by owner set under the active ring, sorted for determinism.
func (c *Cluster) replicaGroups() []aeGroup {
	c.topoMu.RLock()
	r := c.ring
	nodes := make([]*storageNode, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.topoMu.RUnlock()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].id < nodes[j].id })

	seen := make(map[string]bool)
	groups := make(map[string]*aeGroup)
	var buf [routeStack]int
	var keys []string
	for _, node := range nodes {
		for _, p := range node.partitions() {
			k := partKey(p.table, p.pkey)
			if seen[k] {
				continue
			}
			seen[k] = true
			ids := r.Lookup(hashKey(p.table, p.pkey), buf[:0])
			owners := append([]int(nil), ids...)
			sort.Ints(owners)
			gk := ""
			for _, id := range owners {
				gk += strconv.Itoa(id) + ","
			}
			g := groups[gk]
			if g == nil {
				g = &aeGroup{ids: owners}
				groups[gk] = g
				keys = append(keys, gk)
			}
			g.parts = append(g.parts, p)
		}
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
func (c *Cluster) digestOwner(id int, parts []aePartition) *ownerDigest {
	node := c.nodeAt(id)
	if node == nil || node.down.Load() {
		return nil
	}
	od := &ownerDigest{node: node, leaves: make(map[aePartition]uint64, len(parts))}
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
func (c *Cluster) divergedPartitions(g aeGroup) []aePartition {
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
	var out []aePartition
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

// repairPartition converges one partition's live copies: under the
// write gate (no foreground write can interleave), every live owner's
// rows are merged newest-per-clustering-key by stamp and owners missing
// the winner (or holding an older version) are rewritten. Returns the
// bytes streamed, for the rate limiter — the gate is released before
// the limiter sleeps.
func (c *Cluster) repairPartition(table, pkey string, stats *RepairStats) int64 {
	c.writeGate.Lock()
	defer c.writeGate.Unlock()
	var rt route
	c.writeRoute(table, pkey, &rt)
	type ownerCopy struct {
		node *storageNode
		rows map[string][]byte
	}
	var copies []ownerCopy
	for _, node := range rt.nodes {
		if node.down.Load() {
			continue
		}
		node.mu.Lock()
		if node.closed {
			node.mu.Unlock()
			continue
		}
		rows := node.be.ScanPrefix(table, pkey, "")
		node.mu.Unlock()
		m := make(map[string][]byte, len(rows))
		for _, r := range rows {
			m[r.CKey] = r.Value
		}
		copies = append(copies, ownerCopy{node, m})
	}
	if len(copies) < 2 {
		return 0
	}
	win := make(map[string][]byte)
	for _, cp := range copies {
		for ck, v := range cp.rows {
			if cur, ok := win[ck]; !ok || newerThan(v, cur) {
				win[ck] = v
			}
		}
	}
	var streamed int64
	repaired := false
	for _, cp := range copies {
		for ck, v := range win {
			cur, ok := cp.rows[ck]
			if ok && !newerThan(v, cur) {
				continue
			}
			cp.node.mu.Lock()
			if !cp.node.closed && !cp.node.down.Load() {
				cp.node.be.Put(table, pkey, ck, v)
				repaired = true
				stats.Rows++
				nb := int64(len(ck) + len(v))
				stats.Bytes += nb
				streamed += nb
			}
			cp.node.mu.Unlock()
		}
	}
	if repaired {
		stats.Partitions++
	}
	return streamed
}
