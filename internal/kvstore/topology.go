package kvstore

// Node lifecycle, fault injection and the background rebalancer.
//
// AddNode/RemoveNode compute the ring diff and hand it to a background
// goroutine that streams only the partitions whose owner set changed,
// one partition at a time, under a byte-rate limit. While the migration
// runs the cluster routes reads through the pre-change ring until each
// partition's handoff commits and duplicates writes to the union of old
// and new owners, so no query ever observes a missing partition. The
// gate protocol against concurrent traffic is documented on the
// Cluster fields (readGate/writeGate in kvstore.go).

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"hgs/internal/backend"
	"hgs/internal/backend/memtable"
	"hgs/internal/ring"
)

var (
	// ErrUnknownNode reports a topology or fault operation naming a node
	// that is not in the cluster.
	ErrUnknownNode = errors.New("kvstore: unknown node")
	// ErrDuplicateNode reports an AddNode for an id already present.
	ErrDuplicateNode = errors.New("kvstore: node already in cluster")
	// ErrRebalancing reports a topology change attempted while a
	// previous one is still streaming.
	ErrRebalancing = errors.New("kvstore: rebalance in progress")
	// ErrTooFewNodes reports a RemoveNode that would leave fewer nodes
	// than the replication factor.
	ErrTooFewNodes = errors.New("kvstore: removal would leave fewer nodes than replication factor")
)

// Fault is a per-node fault injection profile (InjectFault): each node
// visit errors with probability ErrRate (deterministically spread — a
// rate of 0.25 fails exactly every 4th visit) and is held for
// ExtraLatency of real time, under the node's service lock, whether or
// not it errors. Failed visits still charge a base operation of
// modelled service time: the request reached the machine.
type Fault struct {
	ErrRate      float64
	ExtraLatency time.Duration
}

// fires reports whether this visit should error, advancing the node's
// deterministic fault counter.
func (f *Fault) fires(n *storageNode) bool {
	if f.ErrRate <= 0 {
		return false
	}
	if f.ErrRate >= 1 {
		return true
	}
	k := n.faultN.Add(1)
	return int64(float64(k)*f.ErrRate) != int64(float64(k-1)*f.ErrRate)
}

// nodeAt returns the live handle for a node id, nil if absent.
func (c *Cluster) nodeAt(id int) *storageNode {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	return c.nodes[id]
}

// FailNode marks a node down: every replica visit to it errors until
// ReviveNode. Reads fail over to the remaining replicas; writes queue
// hints. The node's engine is left untouched.
func (c *Cluster) FailNode(id int) error {
	node := c.nodeAt(id)
	if node == nil {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	node.down.Store(true)
	return nil
}

// ReviveNode brings a failed node back: the mutations it missed (hinted
// handoff) are delivered through the current ring — to the node itself
// where it still owns the partition, and to whichever replicas own it
// now where a rebalance moved it away while the node was down. The node
// stays marked down (reads keep failing over) until its queue is empty,
// so no read can observe it live but behind its hints.
func (c *Cluster) ReviveNode(id int) error {
	node := c.nodeAt(id)
	if node == nil {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	node.mu.Lock()
	closed := node.closed
	node.mu.Unlock()
	if closed {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	// Drain-deliver until empty: a writer that saw the node down may
	// append one more hint while we deliver the previous batch. The final
	// empty check and the down flip happen under hintMu together, and
	// writers append through queueHint, which re-checks down under the
	// same lock — so every hint either lands in a batch this loop
	// delivers, or the writer observes down==false and applies directly.
	for {
		node.hintMu.Lock()
		if len(node.hints) == 0 {
			node.drainedHints()
			node.down.Store(false)
			node.hintMu.Unlock()
			return nil
		}
		hs := node.hints
		node.hints = nil
		node.hintMu.Unlock()
		for _, h := range hs {
			c.deliverHint(node, h)
		}
	}
}

// deliverHint re-routes one queued mutation through the current ring.
// The partition's owner set may have changed while the hint waited
// (node down, persistent fault, decommission), so applying it to the
// origin node alone could strand the write on a non-owner — invisible
// to reads and anti-entropy — or lose it to a later queued drop. Puts
// and deletes go to every current owner, stamp-guarded so an old hint
// never rolls back a newer row; a queued drop stays local, because it
// describes the origin's own relinquished copy while the current
// owners' copies are live.
//
// The origin is applied directly even while still marked down (this IS
// its replay path); other down owners get the hint queued for their own
// revival. Only one node's service lock is held at a time, so
// deliveries from concurrent revives cannot deadlock.
func (c *Cluster) deliverHint(origin *storageNode, h hint) {
	if h.op == hintDrop {
		origin.mu.Lock()
		if !origin.closed {
			origin.be.DropPartition(h.table, h.pkey)
		}
		origin.mu.Unlock()
		return
	}
	var rt route
	c.writeRoute(h.table, h.pkey, &rt)
	for _, node := range rt.nodes {
		if node != origin && node.down.Load() && node.queueHint(h) {
			continue
		}
		node.mu.Lock()
		if !node.closed {
			replayHint(node.be, h)
		}
		node.mu.Unlock()
	}
}

// InjectFault installs (or, with nil, clears) a fault profile on a
// node. Unlike FailNode the node stays a valid read target — a faulting
// visit errors and the read fails over, which is how tests exercise the
// failover path without taking a replica fully out. Clearing the
// profile replays any hints writes force-queued against a persistently
// erroring node (writeReplica), so the node does not keep serving reads
// while silently missing mutations: unlike FailNode hints, these would
// otherwise wait for a ReviveNode that never comes.
//
// The profile must have an ErrRate in [0, 1] and a non-negative
// ExtraLatency. The node keeps a copy, so the caller may reuse f.
func (c *Cluster) InjectFault(id int, f *Fault) error {
	node := c.nodeAt(id)
	if node == nil {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if f != nil {
		if !(f.ErrRate >= 0 && f.ErrRate <= 1) { // also rejects NaN
			return fmt.Errorf("kvstore: fault ErrRate %v outside [0, 1]", f.ErrRate)
		}
		if f.ExtraLatency < 0 {
			return fmt.Errorf("kvstore: negative fault ExtraLatency %v", f.ExtraLatency)
		}
		cp := *f
		f = &cp
	}
	node.fault.Store(f)
	if f == nil || f.ErrRate <= 0 {
		c.replayHints(node)
	}
	return nil
}

// replayHints delivers a live node's queued hints through the current
// ring (deliverHint). A down node keeps its hints for ReviveNode, which
// delivers them and flips the node back up atomically.
func (c *Cluster) replayHints(node *storageNode) {
	node.mu.Lock()
	closed := node.closed
	node.mu.Unlock()
	if closed || node.down.Load() {
		return
	}
	for {
		node.hintMu.Lock()
		hs := node.hints
		node.hints = nil
		if len(hs) == 0 {
			node.drainedHints()
			node.hintMu.Unlock()
			return
		}
		node.hintMu.Unlock()
		for _, h := range hs {
			c.deliverHint(node, h)
		}
	}
}

// AddNode creates a new storage node (engine from the configured
// factory) and starts the background rebalance that streams the
// partitions the ring now assigns to it. It returns once the migration
// is underway; WaitRebalance blocks until it finishes.
func (c *Cluster) AddNode(id int) error {
	if id < 0 {
		return fmt.Errorf("kvstore: add node: id must be >= 0, got %d", id)
	}
	factory := c.cfg.Backend
	if factory == nil {
		factory = memtable.Factory()
	}
	// The rebActive check and beginRebalanceLocked's set must be one
	// critical section under topoMu: two concurrent topology calls must
	// not both pass the check and arm two overlapping migrations.
	c.topoMu.Lock()
	if c.rebActive.Load() {
		c.topoMu.Unlock()
		return ErrRebalancing
	}
	if _, ok := c.nodes[id]; ok {
		c.topoMu.Unlock()
		return fmt.Errorf("%w: %d", ErrDuplicateNode, id)
	}
	be, err := factory(id)
	if err != nil {
		c.topoMu.Unlock()
		return fmt.Errorf("kvstore: add node %d: %w", id, err)
	}
	node := &storageNode{id: id, be: be}
	if c.cfg.HintDir != "" {
		if err := c.attachHintLog(node, false); err != nil {
			be.Close()
			c.topoMu.Unlock()
			return fmt.Errorf("kvstore: add node %d: %w", id, err)
		}
	}
	c.nodes[id] = node
	c.beginRebalanceLocked(c.ring.With(id))
	c.topoMu.Unlock()
	go c.rebalance(-1)
	return nil
}

// RemoveNode starts decommissioning a node: the background rebalance
// streams every partition it owns to the post-removal owners, then
// closes and drops the node. Refuses to shrink below the replication
// factor. Reads keep being served by the retiring node until each
// partition's handoff commits.
func (c *Cluster) RemoveNode(id int) error {
	// Check-and-arm under topoMu, as in AddNode: see the comment there.
	c.topoMu.Lock()
	if c.rebActive.Load() {
		c.topoMu.Unlock()
		return ErrRebalancing
	}
	if _, ok := c.nodes[id]; !ok {
		c.topoMu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if len(c.nodes)-1 < c.cfg.Replication {
		c.topoMu.Unlock()
		return fmt.Errorf("%w: have %d nodes, replication %d", ErrTooFewNodes, len(c.nodes), c.cfg.Replication)
	}
	c.beginRebalanceLocked(c.ring.Without(id))
	c.topoMu.Unlock()
	go c.rebalance(id)
	return nil
}

// beginRebalanceLocked swaps in the post-change ring and arms the
// migration state. Caller holds topoMu and has already checked
// rebActive; reads route through oldRing until partitions land in
// moved, writes go to the union of both rings' owners.
func (c *Cluster) beginRebalanceLocked(next *ring.Ring) {
	c.rebActive.Store(true)
	c.oldRing = c.ring
	c.ring = next
	c.moved = make(map[string]bool)
	c.rebDone = make(chan struct{})
	c.rebErr = nil
	c.rebalances.Add(1)
}

// Rebalancing reports whether a background topology migration is
// running (including its final drop phase).
func (c *Cluster) Rebalancing() bool { return c.rebActive.Load() }

// WaitRebalance blocks until the in-flight topology migration (if any)
// finishes and returns its error. The error persists until the next
// topology change, so a later caller still observes a failed commit.
func (c *Cluster) WaitRebalance() error {
	c.topoMu.RLock()
	done := c.rebDone
	c.topoMu.RUnlock()
	if done != nil {
		<-done
	}
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	return c.rebErr
}

// pendingMove is one partition whose owner set changes with the ring.
type pendingMove struct {
	table, pkey string
	adds, drops []int // new-only and old-only owner ids
}

// rebalance is the background migration: plan the moved partitions,
// stream each one under the write gate and the rate limit, commit the
// new topology, then drop the relinquished copies and (for a removal)
// retire the node. retiring is the node being removed, -1 for an add.
func (c *Cluster) rebalance(retiring int) {
	defer func() {
		c.topoMu.RLock()
		done := c.rebDone
		c.topoMu.RUnlock()
		c.rebActive.Store(false)
		close(done)
	}()

	moves := c.planMoves()

	// Stream one partition at a time. The write gate is held only
	// across a single partition's copy, so foreground writes stall at
	// most one partition's worth of streaming.
	var debt time.Duration
	rate := c.cfg.RebalanceRate
	for i := range moves {
		n := c.movePartition(&moves[i])
		if rate > 0 && n > 0 {
			debt += time.Duration(n) * time.Second / time.Duration(rate)
			if debt > 2*time.Millisecond {
				time.Sleep(debt)
				debt = 0
			}
		}
	}

	// Commit point: persist the post-change node set before any old
	// copy is dropped. On failure, keep the old copies (the persisted
	// topology still describes them) and surface the error.
	var commitErr error
	if c.cfg.OnTopologyCommit != nil {
		c.topoMu.RLock()
		ids := c.ring.Nodes()
		c.topoMu.RUnlock()
		if err := c.cfg.OnTopologyCommit(ids); err != nil {
			commitErr = fmt.Errorf("kvstore: commit topology: %w", err)
		}
	}

	// Swap to single-ring routing, then flush every read that resolved
	// its route under the old ring before touching any old copy.
	c.topoMu.Lock()
	c.oldRing = nil
	c.moved = nil
	c.rebErr = commitErr
	c.topoMu.Unlock()
	c.readGate.Lock()
	c.readGate.Unlock() //nolint:staticcheck // empty critical section is the barrier

	if commitErr == nil {
		// Writers that routed under the dual-ring union must finish
		// before their old-owner copies are dropped out from under the
		// accounting; after this barrier all traffic is new-ring only.
		c.writeGate.Lock()
		c.writeGate.Unlock() //nolint:staticcheck // barrier, as above
		for i := range moves {
			c.dropOldCopies(&moves[i])
		}
	}

	// On a failed commit the retiring node is kept too, still serving its
	// copies: the persisted topology lists it, and closing it would make
	// the live cluster diverge from what a restart recovers. A later
	// RemoveNode (after the operator fixes the commit path) retires it.
	if retiring >= 0 && commitErr == nil {
		node := c.nodeAt(retiring)
		if node != nil {
			// Writes the retiring node refused through a persistent fault
			// (or missed while transiently down) live only in its hint
			// queue. Deliver them through the committed ring before the
			// node closes — dropping the queue with the node would lose
			// acknowledged-elsewhere-as-hinted writes for good.
			for {
				node.hintMu.Lock()
				hs := node.hints
				node.hints = nil
				node.hintMu.Unlock()
				if len(hs) == 0 {
					break
				}
				for _, h := range hs {
					c.deliverHint(node, h)
				}
			}
			node.mu.Lock()
			if !node.closed {
				node.closed = true
				if err := node.be.Close(); err != nil {
					c.topoMu.Lock()
					c.rebErr = fmt.Errorf("kvstore: retire node %d: %w", retiring, err)
					c.topoMu.Unlock()
				}
			}
			node.mu.Unlock()
			node.hintMu.Lock()
			if node.hlog != nil {
				node.hlog.removeFile()
				node.hlog = nil
			}
			node.hintMu.Unlock()
			c.topoMu.Lock()
			delete(c.nodes, retiring)
			c.topoMu.Unlock()
		}
	}
}

// planMoves enumerates every partition in the cluster, computes its
// owner sets under the old and new rings, and returns the partitions
// whose set changed.
// Partitions whose owners are unchanged are committed as moved
// immediately so reads route through the new ring without waiting
// behind the streaming queue.
func (c *Cluster) planMoves() []pendingMove {
	c.topoMu.RLock()
	oldR, newR := c.oldRing, c.ring
	nodes := make([]*storageNode, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.topoMu.RUnlock()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].id < nodes[j].id })

	seen := make(map[string]bool)
	var moves []pendingMove
	var settled []string
	var oldBuf, newBuf [routeStack]int
	for _, node := range nodes {
		if !oldR.Has(node.id) {
			continue
		}
		for _, p := range node.partitions() {
			k := partKey(p.table, p.pkey)
			if seen[k] {
				continue
			}
			seen[k] = true
			h := hashKey(p.table, p.pkey)
			oldIDs := oldR.Lookup(h, oldBuf[:0])
			newIDs := newR.Lookup(h, newBuf[:0])
			adds := diffIDs(newIDs, oldIDs)
			drops := diffIDs(oldIDs, newIDs)
			if len(adds) == 0 && len(drops) == 0 {
				settled = append(settled, k)
				continue
			}
			moves = append(moves, pendingMove{table: p.table, pkey: p.pkey, adds: adds, drops: drops})
		}
	}
	if len(settled) > 0 {
		c.topoMu.Lock()
		if c.moved != nil {
			for _, k := range settled {
				c.moved[k] = true
			}
		}
		c.topoMu.Unlock()
	}
	return moves
}

// diffIDs returns the ids in a that are not in b (both are tiny).
func diffIDs(a, b []int) []int {
	var out []int
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			out = append(out, x)
		}
	}
	return out
}

// movePartition copies one partition to its new owners and commits its
// handoff, all under the write gate so no foreground write can
// interleave with the copy (a write landing between "read rows" and
// "put rows" on the destination would be overwritten by the stale
// copy). Returns the byte volume streamed, for the rate limiter.
func (c *Cluster) movePartition(m *pendingMove) int64 {
	c.writeGate.Lock()
	defer c.writeGate.Unlock()

	// Merge the partition across every live old owner, newest stamp per
	// ckey: replicas can disagree mid-churn (a straggler write applied or
	// hinted on one copy only), and streaming a single possibly-stale
	// copy while dropOldCopies discards the rest would lose the newer
	// row. With every old owner down (or removed while failed) the rows
	// are unrecoverable; the handoff still commits so routing converges.
	c.topoMu.RLock()
	oldR := c.oldRing
	c.topoMu.RUnlock()
	if oldR == nil {
		return 0 // cluster shutting down mid-plan
	}
	var srcBuf [routeStack]int
	var rows []backend.Row
	got := false
	rowAt := make(map[string]int)
	for _, id := range oldR.Lookup(hashKey(m.table, m.pkey), srcBuf[:0]) {
		node := c.nodeAt(id)
		if node == nil || node.down.Load() {
			continue
		}
		node.mu.Lock()
		if node.closed {
			node.mu.Unlock()
			continue
		}
		nrows := node.be.ScanPrefix(m.table, m.pkey, "")
		node.mu.Unlock()
		got = true
		for _, r := range nrows {
			if j, ok := rowAt[r.CKey]; ok {
				if newerThan(r.Value, rows[j].Value) {
					rows[j] = r
				}
				continue
			}
			rowAt[r.CKey] = len(rows)
			rows = append(rows, r)
		}
	}

	var bytes int64
	if got && len(rows) > 0 {
		for _, r := range rows {
			bytes += int64(len(r.CKey) + len(r.Value))
		}
		for _, id := range m.adds {
			node := c.nodeAt(id)
			if node == nil {
				continue
			}
			// A down new owner gets each row hinted so revive replays
			// the handoff; queueHint re-checks down under hintMu, so a
			// concurrent revive cannot strand a hint — rows it refuses
			// are applied directly to the now-live engine. Application is
			// stamp-guarded (replayHint): a hint delivery landing on the
			// destination between our source read and this write must not
			// be rolled back by the older streamed copy.
			for _, r := range rows {
				h := hint{op: hintPut, table: m.table, pkey: m.pkey, ckey: r.CKey, value: r.Value}
				if node.down.Load() && node.queueHint(h) {
					c.hintedWrites.Add(1)
					continue
				}
				node.mu.Lock()
				if !node.closed {
					replayHint(node.be, h)
				}
				node.mu.Unlock()
			}
		}
	}

	c.topoMu.Lock()
	if c.moved != nil {
		c.moved[partKey(m.table, m.pkey)] = true
	}
	c.topoMu.Unlock()

	c.rebalancedParts.Add(1)
	c.rebalancedRows.Add(int64(len(rows)))
	c.rebalancedBytes.Add(bytes)
	return bytes
}

// dropOldCopies removes the partition from the owners the new ring
// relinquished. Runs after the post-commit read/write barriers, so no
// in-flight operation can still be routed at these copies. A down old
// owner gets the drop hinted, keeping its revive-replay consistent
// with the new placement.
func (c *Cluster) dropOldCopies(m *pendingMove) {
	for _, id := range m.drops {
		node := c.nodeAt(id)
		if node == nil {
			continue
		}
		if node.down.Load() && node.queueHint(hint{op: hintDrop, table: m.table, pkey: m.pkey}) {
			continue
		}
		node.mu.Lock()
		if !node.closed {
			node.be.DropPartition(m.table, m.pkey)
		}
		node.mu.Unlock()
	}
}

// NodeInfo describes one storage node in a topology dump.
type NodeInfo struct {
	ID           int     `json:"id"`
	VirtualNodes int     `json:"virtual_nodes"`
	KeyShare     float64 `json:"key_share"` // fraction of the hash space this node is primary for
	Down         bool    `json:"down"`
	StoredBytes  int64   `json:"stored_bytes"`
	PendingHints int     `json:"pending_hints"`
}

// TopologyInfo is a point-in-time description of cluster placement:
// per-node ring weight and health plus the partitions currently
// under-replicated (at least one replica down or hinted).
type TopologyInfo struct {
	Replication     int        `json:"replication"`
	VirtualNodes    int        `json:"virtual_nodes"`
	Rebalancing     bool       `json:"rebalancing"`
	Nodes           []NodeInfo `json:"nodes"`
	Partitions      int        `json:"partitions"`
	UnderReplicated int        `json:"under_replicated"`
}

// Topology inspects the cluster: ring shares and health per node, and a
// sweep over every partition counting the ones with a down replica.
// The sweep enumerates every engine, so it is an inspection
// surface, not a hot path.
func (c *Cluster) Topology() TopologyInfo {
	c.topoMu.RLock()
	r := c.ring
	nodes := make([]*storageNode, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.topoMu.RUnlock()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].id < nodes[j].id })

	shares := r.Shares()
	info := TopologyInfo{
		Replication:  c.cfg.Replication,
		VirtualNodes: r.VirtualNodes(),
		Rebalancing:  c.Rebalancing(),
	}
	for _, node := range nodes {
		node.hintMu.Lock()
		hints := len(node.hints)
		node.hintMu.Unlock()
		node.mu.Lock()
		var stored int64
		if !node.closed {
			stored = node.be.StoredBytes()
		}
		node.mu.Unlock()
		info.Nodes = append(info.Nodes, NodeInfo{
			ID:           node.id,
			VirtualNodes: r.PointsOf(node.id),
			KeyShare:     shares[node.id],
			Down:         node.down.Load(),
			StoredBytes:  stored,
			PendingHints: hints,
		})
	}

	// Partition sweep: owners under the active ring, counted
	// under-replicated when any owner is down.
	seen := make(map[string]bool)
	var buf [routeStack]int
	for _, node := range nodes {
		for _, p := range node.partitions() {
			k := partKey(p.table, p.pkey)
			if seen[k] {
				continue
			}
			seen[k] = true
			info.Partitions++
			for _, id := range r.Lookup(hashKey(p.table, p.pkey), buf[:0]) {
				owner := c.nodeAt(id)
				if owner == nil || owner.down.Load() {
					info.UnderReplicated++
					break
				}
			}
		}
	}
	return info
}
