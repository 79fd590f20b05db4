// Package kvstore models the distributed key-value store that backs the
// Temporal Graph Index. The paper uses an Apache Cassandra cluster; this
// package reproduces the properties its evaluation depends on:
//
//   - data placement by partition key across m storage machines, on a
//     consistent-hash ring (internal/ring) so the node set can change
//     shape at runtime with bounded data movement,
//   - replication factor r with replication-aware reads: one replica
//     serves, failing over to the next on a down or faulty node,
//     write-all with hinted handoff for replicas that are down,
//   - rows sorted by clustering key within a partition, so that all
//     micro-partitions of one delta scan contiguously (paper §4.4 item 5),
//   - per-machine serialized service, and a cost model (base cost per
//     operation plus per-KB transfer cost) charged to a modelled clock
//     rather than waited out: each visit's cost is attributed to the
//     node that served it, and a batched round lasts as long as its
//     busiest node (RoundTime) — the quantity behind the parallel fetch
//     speedups and saturation of Figures 11–12,
//   - read/write/byte counters for the cost accounting of Table 1,
//   - node lifecycle: AddNode/RemoveNode trigger a background rebalance
//     that streams only the moved partitions between node engines under
//     a rate limit, serving every partition from its old or new owner
//     until the handoff commits (see topology.go),
//   - per-node fault injection (FailNode/ReviveNode, InjectFault) so
//     tests and benchmarks cover degraded reads.
//
// Background work moves rows between replicas in one way. A single
// convergence step (convergePartition, antientropy.go) scans a
// partition's live copies on a set of source nodes, keeps the newest
// version of each clustering key by version stamp (stamp.go), and
// writes each winner to the target nodes through one stamp guard
// (putIfNewer) checked against the row present at write time. The
// rebalancer's handoff runs it from old owners to new owners,
// anti-entropy from the live owners to themselves. Hint replay,
// quorum-write tails and read-repair write through the same guard, and
// every hint queue drains through one loop (drainHints).
//
// Each node's actual row storage is a pluggable backend.Backend: the
// default in-memory memtable keeps the store a pure simulation, while a
// durable engine (backend/disklog) makes the cluster survive process
// restarts. The cluster is in-process and safe for concurrent use.
package kvstore

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hgs/internal/backend"
	"hgs/internal/backend/memtable"
	"hgs/internal/ring"
)

// LatencyModel prices storage operations in modelled service time. The
// cost is charged to counters (Metrics.SimWait, CallStats) and never
// waited out; the zero model costs nothing.
type LatencyModel struct {
	// BaseOp is charged once per request (seek + request overhead).
	BaseOp time.Duration
	// PerKB is charged per kilobyte moved.
	PerKB time.Duration
}

// DefaultLatency approximates a commodity networked disk-backed store at
// the scale of our benchmark datasets.
func DefaultLatency() LatencyModel {
	return LatencyModel{
		BaseOp: 60 * time.Microsecond,
		PerKB:  250 * time.Microsecond,
	}
}

// Cost returns the modelled service time for an operation moving n bytes.
func (lm LatencyModel) Cost(n int) time.Duration {
	return lm.BaseOp + time.Duration(n)*lm.PerKB/1024
}

// Config describes a cluster.
type Config struct {
	// Machines is the number of storage nodes (paper parameter m).
	// Ignored when Nodes is set.
	Machines int
	// Nodes, when non-empty, names the storage nodes explicitly (a
	// reattached durable cluster whose membership changed since
	// creation). Empty means nodes 0..Machines-1.
	Nodes []int
	// Replication is the number of replicas per partition (paper r).
	Replication int
	// ReadQuorum is the number of replicas a read consults (R). The
	// default 1 preserves read-one behavior; with R > 1 reads fan out,
	// return the newest version by stamp and queue read-repair for
	// replicas observed stale. Clamped to [1, Replication].
	ReadQuorum int
	// WriteQuorum is the number of replica acknowledgements a write
	// waits for (W). The default (0) waits for every replica, today's
	// write-all behavior; with W < Replication the write returns after
	// W live replicas applied it and the rest complete in the
	// background. Clamped to [1, Replication]. R+W > Replication gives
	// read-your-writes through the quorum intersection.
	WriteQuorum int
	// HintDir, when non-empty, persists each node's hinted-handoff
	// queue to a per-node record log (internal/reclog) under this
	// directory, so hints survive a process restart:
	// they are replayed on revive and on reopen. Empty keeps hints
	// in memory only.
	HintDir string
	// AntiEntropyInterval, when positive, runs a background
	// anti-entropy sweep (RepairPartitions) at this period. Zero
	// disables the loop; RepairPartitions can still be called
	// explicitly.
	AntiEntropyInterval time.Duration
	// VirtualNodes is the number of points each node projects onto the
	// placement ring; zero picks ring.DefaultVirtualNodes. Placement
	// depends on it, so durable stores must reopen with the value they
	// were created with.
	VirtualNodes int
	// RebalanceRate caps topology-change data streaming in bytes per
	// second: zero picks the 8 MiB/s default, negative disables the
	// limit.
	RebalanceRate int64
	// Latency is the per-node service cost model, fixed for the
	// cluster's lifetime.
	Latency LatencyModel
	// Backend creates the storage engine of each node. Nil uses the
	// in-memory memtable engine. AddNode calls it with fresh node ids at
	// runtime.
	Backend backend.Factory
	// OnTopologyCommit, when set, persists a topology change: the
	// rebalancer calls it with the post-change node set after every
	// moved partition has been copied to its new owners and before any
	// old copy is dropped — so a crash around the commit point leaves
	// either the old topology with complete old placement, or the new
	// topology with complete new placement. An error skips the drop
	// phase (old copies are kept) and surfaces from WaitRebalance.
	OnTopologyCommit func(nodes []int) error
}

// defaultRebalanceRate is the rebalancer's streaming budget when
// Config.RebalanceRate is zero.
const defaultRebalanceRate = 8 << 20

// normalize fills defaults and clamps the configuration in place.
func (c *Config) normalize() {
	if len(c.Nodes) == 0 {
		if c.Machines < 1 {
			c.Machines = 1
		}
		c.Nodes = make([]int, c.Machines)
		for i := range c.Nodes {
			c.Nodes[i] = i
		}
	} else {
		ns := append([]int(nil), c.Nodes...)
		sort.Ints(ns)
		dst := ns[:0]
		for i, n := range ns {
			if i == 0 || n != ns[i-1] {
				dst = append(dst, n)
			}
		}
		c.Nodes = dst
	}
	c.Machines = len(c.Nodes)
	if c.Replication < 1 {
		c.Replication = 1
	}
	if c.Replication > c.Machines {
		c.Replication = c.Machines
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = ring.DefaultVirtualNodes
	}
	if c.RebalanceRate == 0 {
		c.RebalanceRate = defaultRebalanceRate
	}
	c.ReadQuorum = clampQuorum(c.ReadQuorum, 1, c.Replication)
	c.WriteQuorum = clampQuorum(c.WriteQuorum, c.Replication, c.Replication)
}

// clampQuorum normalizes a quorum knob: zero picks def, anything else
// is clamped to [1, max].
func clampQuorum(q, def, max int) int {
	if q == 0 {
		return def
	}
	if q < 1 {
		return 1
	}
	if q > max {
		return max
	}
	return q
}

// Metrics is a snapshot of cluster-wide counters. Reads and Writes count
// logical operations (one per key or prefix scan, even inside a batch);
// RoundTrips counts physical node visits — a MultiGet touching two
// machines is many Reads but two RoundTrips. SimWait is the total
// modelled service time charged by the latency model.
//
// The replication-awareness counters: Failovers counts replica visits
// that failed (node down or injected fault) during reads; DegradedReads
// counts reads that could not be served by their rotation-preferred
// replica and were answered by another one. UnderReplicatedWrites
// counts logical writes that reached fewer live replicas than the
// replication factor; HintedWrites counts the per-replica mutations
// queued for a down node (replayed when it is revived). All four stay
// zero while every node is healthy. Rebalanced* count the background
// rebalancer's work: partitions handed off, and the rows and bytes
// written (or hinted) to new owners, where a row a new owner already
// holds at least as new is not counted; RebalanceActive is a 0/1 gauge.
//
// The Tier* fields aggregate the per-tier counters of engines that
// implement backend.Tiered (disklog, bare or tiered); they stay zero
// on the memtable. TierHotReads row lookups were served from memory
// without disk I/O, TierColdReads were read from disk; FlushedBytes
// counts the value bytes written to disk and Compactions the disk
// logs' compactions. TierHotBytes is a gauge of the bytes currently
// memory-resident (not affected by ResetMetrics).
type Metrics struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
	RoundTrips   int64
	SimWait      time.Duration

	Failovers             int64
	DegradedReads         int64
	UnderReplicatedWrites int64
	HintedWrites          int64

	// ReadRepairs counts rows rewritten on a stale replica after a
	// quorum read observed divergence (zero on a healthy cluster).
	// The AntiEntropy* counters track the background comparator:
	// sweeps run, partitions found divergent and repaired, and the
	// rows/bytes streamed to converge them.
	ReadRepairs           int64
	AntiEntropyRuns       int64
	AntiEntropyPartitions int64
	AntiEntropyRows       int64
	AntiEntropyBytes      int64

	RebalancedPartitions int64
	RebalancedRows       int64
	RebalancedBytes      int64
	RebalanceActive      int64

	TierHotReads  int64
	TierColdReads int64
	FlushedBytes  int64
	Compactions   int64
	TierHotBytes  int64
}

// Row is one clustered row inside a partition.
type Row = backend.Row

// hintOp enumerates the mutations a hinted handoff can carry.
type hintOp byte

const (
	hintPut hintOp = iota
	hintDelete
	hintDrop
)

// hint is one mutation a down replica missed, replayed on revive.
type hint struct {
	op                hintOp
	table, pkey, ckey string
	value             []byte
}

// storageNode is one machine. A mutex serializes service, modelling a
// single-disk server: the latency model charges each visit to the node
// that served it, so a node's modelled busy time is the sum of its
// visits' costs.
type storageNode struct {
	id int

	mu sync.Mutex
	be backend.Backend
	// closed marks the engine torn down (node removed from the cluster);
	// a straggler routed here before the ring swap fails over instead of
	// touching a closed engine.
	closed bool
	// down simulates a failed machine: every visit errors until revive.
	down atomic.Bool
	// fault, when non-nil, injects probabilistic errors and/or a latency
	// spike into each visit (InjectFault).
	fault  atomic.Pointer[Fault]
	faultN atomic.Uint64

	// hints queues mutations the node missed while down (or refused
	// through a persistent injected fault), replayed in order by
	// ReviveNode or when InjectFault clears the profile. With a
	// configured HintDir every queued hint is mirrored to hlog, so the
	// queue also survives a process restart (replayed at Open).
	hintMu sync.Mutex
	hints  []hint
	hlog   *hintLog
}

// queueHint queues one missed mutation for replay on revive, iff the
// node is still down. The down check happens under hintMu — the same
// lock ReviveNode holds for its final drain-and-flip — so a hint can
// never be appended after revive decided the queue was empty: the
// writer either lands in a batch the revive loop replays, or observes
// down==false here and must apply the write directly.
func (n *storageNode) queueHint(h hint) bool {
	n.hintMu.Lock()
	defer n.hintMu.Unlock()
	if !n.down.Load() {
		return false
	}
	n.hints = append(n.hints, h)
	if n.hlog != nil {
		n.hlog.append(h)
	}
	return true
}

// forceHint queues a mutation unconditionally — for writes that could
// not be applied to a live node (persistent injected fault, node being
// torn down). Such hints are replayed when the fault profile clears
// (InjectFault) or the node is revived.
func (n *storageNode) forceHint(h hint) {
	n.hintMu.Lock()
	n.hints = append(n.hints, h)
	if n.hlog != nil {
		n.hlog.append(h)
	}
	n.hintMu.Unlock()
}

// Cluster is the distributed store.
type Cluster struct {
	cfg Config

	// topoMu guards the routing state: the node map, the active ring,
	// and — during a rebalance — the pre-change ring plus the set of
	// partitions whose handoff has committed. Operations resolve their
	// routes under a read lock and release it before visiting nodes.
	topoMu  sync.RWMutex
	nodes   map[int]*storageNode
	ring    *ring.Ring
	oldRing *ring.Ring      // non-nil while a rebalance is migrating
	moved   map[string]bool // partitions already handed off (key: table\0pkey)
	rebDone chan struct{}   // closed when the active rebalance finishes
	rebErr  error
	// rebActive covers the whole background migration including the
	// post-commit drop phase (oldRing alone clears at the ring swap).
	rebActive  atomic.Bool
	rebalances atomic.Int64

	// readGate tracks in-flight reads: each read holds the read side
	// from route resolution to the last node visit, and the rebalancer
	// takes the write side once — after the ring swap, before dropping
	// relinquished copies — so no read routed under the old ring can
	// reach a partition after its old copy is dropped.
	readGate sync.RWMutex
	// writeGate serializes writes against partition copies: writers hold
	// the read side from route resolution through the last replica
	// apply; the rebalancer holds the write side while copying one
	// partition (and while dropping), so a copy can never interleave
	// with a write and overwrite a newer value with the one it read.
	writeGate sync.RWMutex

	rr uint64 // round-robin replica selector

	// stamp is the cluster-wide write sequence (see stamp.go): every
	// mutation takes the next value, so any two versions of a row order
	// by stamp.
	stamp atomic.Uint64

	// repairCh feeds the background read-repair worker; pendingRepairs
	// tracks enqueued-but-unapplied tasks so tests can quiesce. stopCh
	// ends the worker and the anti-entropy loop; bg waits them out.
	repairCh       chan repairTask
	pendingRepairs atomic.Int64
	stopOnce       sync.Once
	stopCh         chan struct{}
	bg             sync.WaitGroup

	// aeActive serializes anti-entropy sweeps (background loop vs
	// explicit RepairPartitions calls).
	aeActive atomic.Bool

	reads        atomic.Int64
	writes       atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	roundTrips   atomic.Int64
	simWait      atomic.Int64 // nanoseconds

	failovers       atomic.Int64
	degradedReads   atomic.Int64
	underRepWrites  atomic.Int64
	hintedWrites    atomic.Int64
	readRepairs     atomic.Int64
	aeRuns          atomic.Int64
	aeParts         atomic.Int64
	aeRows          atomic.Int64
	aeBytes         atomic.Int64
	rebalancedParts atomic.Int64
	rebalancedRows  atomic.Int64
	rebalancedBytes atomic.Int64

	// tierBase is the engines' cumulative tier-counter totals at the
	// last ResetMetrics, so Metrics reports deltas like the atomic
	// counters do (the HotBytes gauge is exempt).
	tierBaseMu sync.Mutex
	tierBase   backend.TierCounters
}

// Open builds a cluster per the configuration, creating each node's
// storage engine through cfg.Backend (memtable when nil). On factory
// failure, already-created engines are closed.
func Open(cfg Config) (*Cluster, error) {
	cfg.normalize()
	factory := cfg.Backend
	if factory == nil {
		factory = memtable.Factory()
	}
	c := &Cluster{
		cfg:      cfg,
		nodes:    make(map[int]*storageNode, len(cfg.Nodes)),
		ring:     ring.New(cfg.Nodes, cfg.VirtualNodes, cfg.Replication),
		repairCh: make(chan repairTask, repairQueueDepth),
		stopCh:   make(chan struct{}),
	}
	// Seed the write-sequence stamp from the wall clock so stamps stay
	// monotone across process restarts without scanning the engines for
	// the previous maximum (the counter advances one per write, far
	// slower than nanoseconds pass between sessions).
	c.stamp.Store(uint64(time.Now().UnixNano()))
	fail := func(err error) (*Cluster, error) {
		for _, n := range c.nodes {
			n.be.Close()
			if n.hlog != nil {
				n.hlog.Close()
			}
		}
		return nil, err
	}
	for _, id := range cfg.Nodes {
		be, err := factory(id)
		if err != nil {
			return fail(fmt.Errorf("kvstore: open node %d: %w", id, err))
		}
		node := &storageNode{id: id, be: be}
		c.nodes[id] = node
		if cfg.HintDir != "" {
			if err := c.attachHintLog(node, true); err != nil {
				return fail(err)
			}
		}
	}
	c.bg.Add(1)
	go c.repairWorker()
	if cfg.AntiEntropyInterval > 0 {
		c.bg.Add(1)
		go c.antiEntropyLoop(cfg.AntiEntropyInterval)
	}
	return c, nil
}

// NewCluster builds a cluster per the configuration, panicking if a
// node's storage engine cannot be created. Use Open for fallible
// (durable) backends; with the default in-memory engine NewCluster
// never panics.
func NewCluster(cfg Config) *Cluster {
	c, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cluster configuration with Nodes/Machines
// reflecting the current membership (which AddNode/RemoveNode change at
// runtime).
func (c *Cluster) Config() Config {
	cfg := c.cfg
	cfg.Nodes = c.NodeIDs()
	cfg.Machines = len(cfg.Nodes)
	return cfg
}

// Machines returns the number of storage nodes currently in the cluster.
func (c *Cluster) Machines() int {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	return len(c.nodes)
}

// NodeIDs returns the ids of the current storage nodes, sorted.
func (c *Cluster) NodeIDs() []int {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	ids := make([]int, 0, len(c.nodes))
	for id := range c.nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// nodeList snapshots the node handles, sorted by id, for whole-cluster
// sweeps (flush, close, metrics aggregation).
func (c *Cluster) nodeList() []*storageNode {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	out := make([]*storageNode, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// partition names one partition of one table.
type partition struct{ table, pkey string }

// allPartitions lists every partition some node's engine holds rows
// for, each once, in node-id order: the one enumeration behind the
// rebalancer's move plan, the anti-entropy sweep and the topology
// report.
func (c *Cluster) allPartitions() []partition {
	seen := make(map[partition]bool)
	var out []partition
	for _, n := range c.nodeList() {
		n.mu.Lock()
		if !n.closed {
			for _, table := range n.be.Tables() {
				for _, pk := range n.be.PartitionKeys(table) {
					if p := (partition{table, pk}); !seen[p] {
						seen[p] = true
						out = append(out, p)
					}
				}
			}
		}
		n.mu.Unlock()
	}
	return out
}

func hashKey(table, pkey string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(table))
	h.Write([]byte{0})
	h.Write([]byte(pkey))
	return h.Sum64()
}

func partKey(table, pkey string) string { return table + "\x00" + pkey }

// routeStack sizes the stack-backed routing buffers: replica sets and
// old∪new owner unions fit without allocating for any plausible
// replication factor.
const routeStack = 8

// route is a resolved owner list: ids and live node handles, aligned.
// The arrays keep hot-path routing allocation-free (the old replicas()
// helper allocated a fresh slice per Get/Put).
type route struct {
	ids   []int
	nodes []*storageNode
	idArr [routeStack]int
	ndArr [routeStack]*storageNode
}

// resolve maps owner ids to live handles, dropping ids with no node
// (possible only transiently around a removal).
func (rt *route) resolve(c *Cluster, ids []int) {
	rt.nodes = rt.ndArr[:0]
	rt.ids = rt.idArr[:0]
	for _, id := range ids {
		if n := c.nodes[id]; n != nil {
			rt.ids = append(rt.ids, id)
			rt.nodes = append(rt.nodes, n)
		}
	}
}

// readRoute resolves the owners a read of (table, pkey) may be served
// by: the pre-change ring while the partition's handoff is pending,
// the active ring otherwise.
func (c *Cluster) readRoute(table, pkey string, rt *route) {
	h := hashKey(table, pkey)
	var buf [routeStack]int
	c.topoMu.RLock()
	r := c.ring
	if c.oldRing != nil && !c.moved[partKey(table, pkey)] {
		r = c.oldRing
	}
	rt.resolve(c, r.Lookup(h, buf[:0]))
	c.topoMu.RUnlock()
}

// writeRoute resolves the replicas a write must reach: the union of old
// and new owners while the partition's handoff is pending (dual-write),
// the active ring's owners otherwise.
func (c *Cluster) writeRoute(table, pkey string, rt *route) {
	h := hashKey(table, pkey)
	var buf, old [routeStack]int
	c.topoMu.RLock()
	ids := c.ring.Lookup(h, buf[:0])
	if c.oldRing != nil && !c.moved[partKey(table, pkey)] {
		for _, id := range c.oldRing.Lookup(h, old[:0]) {
			dup := false
			for _, x := range ids {
				if x == id {
					dup = true
					break
				}
			}
			if !dup {
				ids = append(ids, id)
			}
		}
	}
	rt.resolve(c, ids)
	c.topoMu.RUnlock()
}

// ReplicasOf returns the node ids currently owning the partition,
// primary first. Inspection surface (property tests, topology dumps) —
// the data path routes through the allocation-free internal helpers.
func (c *Cluster) ReplicasOf(table, pkey string) []int {
	var rt route
	c.readRoute(table, pkey, &rt)
	return append([]int(nil), rt.ids...)
}

// faultWait holds a visit for an injected fault's ExtraLatency — the
// only real wait in the cluster — and returns early once ctx is
// cancelled, so a caller holding a deadline is not stuck behind it.
func faultWait(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// errNodeDown is the visit outcome on a failed (or removed) node;
// errNodeFault on an injected transient error. Readers fail over to the
// next replica on either, writers hint the mutation.
var (
	errNodeDown  = errors.New("kvstore: node unavailable")
	errNodeFault = errors.New("kvstore: injected node fault")
)

// serveNode runs f on the node while holding its service lock and
// charges the latency model's cost for the byte count f reports to the
// serving node, without waiting: a node moving many bytes is modelled
// busy for proportionally long, so cluster size m and replication r
// bound the achievable parallel-fetch speedup (paper Figures 11–12,
// read through RoundTime).
//
// A down node refuses the visit without charge; an injected fault
// charges a base-op before erroring (the request did reach the machine)
// and f does not run, and its ExtraLatency is waited out for real
// (faultWait). The round-trip and the modelled service time are charged
// to the cluster counters and to cs in the same breath, failed visit or
// not, which is what makes a read's CallStats equal what it added to
// Metrics.
func (c *Cluster) serveNode(ctx context.Context, node *storageNode, cs *CallStats, f func(n *storageNode) (bytes int)) error {
	if node.down.Load() {
		return errNodeDown
	}
	c.roundTrips.Add(1)
	cs.RoundTrips++
	node.mu.Lock()
	defer node.mu.Unlock()
	if node.closed || node.down.Load() {
		return errNodeDown
	}
	var (
		err   error
		extra time.Duration
		bytes int
	)
	if fl := node.fault.Load(); fl != nil {
		extra = fl.ExtraLatency
		if fl.fires(node) {
			err = errNodeFault
		}
	}
	if err == nil {
		bytes = f(node)
	}
	d := c.cfg.Latency.Cost(bytes)
	c.simWait.Add(int64(d))
	cs.charge(node.id, d)
	faultWait(ctx, extra)
	return err
}

// writeFaultAttempts bounds a write's visits to a replica with an
// injected fault profile: faults model transient per-visit errors
// (deterministically spread by rate), so retrying a few times lands a
// success for any ErrRate below ~0.75. Only a node that keeps erroring
// (effectively ErrRate 1) falls back to the hint queue.
const writeFaultAttempts = 4

// writeReplica applies one mutation to a single replica. A down node
// gets it queued as a hint (replayed on revive); an injected transient
// fault is retried rather than hinted, because hints on a node that
// never goes through ReviveNode would sit unreplayed while the node
// keeps serving reads; a node that errors persistently gets the hint
// force-queued for replay when its fault profile clears. apply runs the
// mutation on the engine (applyHint, or the stamp-guarded replayHint);
// the visit is charged the mutation's value bytes. Returns whether the
// mutation ended up hinted instead of applied.
func (c *Cluster) writeReplica(node *storageNode, h hint, apply func(backend.Backend, hint)) bool {
	var unreported CallStats // writes return no per-call stats
	for attempt := 0; attempt < writeFaultAttempts; attempt++ {
		if node.down.Load() && node.queueHint(h) {
			return true
		}
		err := c.serveNode(context.Background(), node, &unreported, func(n *storageNode) int {
			apply(n.be, h)
			return len(h.value)
		})
		if err == nil {
			return false
		}
		// errNodeFault: retry — the next visit likely succeeds.
		// errNodeDown: loop back to the queueHint path; if the node was
		// concurrently revived instead, the next visit applies directly.
	}
	node.forceHint(h)
	return true
}

// write is the one foreground write path behind Put, Delete and
// DropPartition: it routes the mutation to every replica of its
// partition (writeRoute: old and new owners during a handoff) and
// applies it there in turn. Live replicas serve it (retrying transient
// injected faults), down ones get it queued as a hint (replayed on
// revive) and the write is counted under-replicated. A put under
// WriteQuorum w < replicas instead fans out to every replica at once
// and returns after w live acknowledgements (writeQuorum).
func (c *Cluster) write(h hint) {
	c.writeGate.RLock()
	var rt route
	c.writeRoute(h.table, h.pkey, &rt)
	c.writes.Add(1)
	if w := c.cfg.WriteQuorum; h.op == hintPut && w < len(rt.nodes) {
		c.writeQuorum(&rt, h, w) // releases writeGate when the tail finishes
		return
	}
	defer c.writeGate.RUnlock()
	short := false
	for _, node := range rt.nodes {
		if c.writeReplica(node, h, applyHint) {
			c.hintedWrites.Add(1)
			short = true
		}
	}
	if short {
		c.underRepWrites.Add(1)
	}
}

// writeQuorum fans one mutation out to every replica in parallel and
// returns once w live replicas acknowledged (or every replica
// responded). The stragglers keep running in the background; a
// completion goroutine releases the write gate's read side only after
// the last replica finished, so the rebalancer's and Close's barriers
// still wait out every in-flight apply. Caller holds writeGate.RLock
// and must NOT release it — ownership passes to the completion
// goroutine.
//
// Once tails run in the background, a straggler of an older write can
// reach a replica after a newer write to the same key — even from the
// same caller, whose second Put may return before the first one's tail
// has run. So every apply here is guarded by the version stamp like a
// replayed hint: an older put never overwrites a newer row. (Applied
// blind, the stale tail could win on every replica and the newer,
// acknowledged write was lost for good — the chaos harness caught it
// on W=1 seeds.)
func (c *Cluster) writeQuorum(rt *route, h hint, w int) {
	n := len(rt.nodes)
	res := make(chan bool, n)
	var pending sync.WaitGroup
	var short atomic.Bool
	pending.Add(n)
	for _, node := range rt.nodes {
		go func(node *storageNode) {
			defer pending.Done()
			hinted := c.writeReplica(node, h, replayHint) // stamp-guarded: see above
			if hinted {
				c.hintedWrites.Add(1)
				short.Store(true)
			}
			res <- !hinted
		}(node)
	}
	go func() {
		pending.Wait()
		if short.Load() {
			c.underRepWrites.Add(1)
		}
		c.writeGate.RUnlock()
	}()
	acks, replies := 0, 0
	for replies < n && acks < w {
		if <-res {
			acks++
		}
		replies++
	}
}

// applyHint runs one queued mutation against an engine.
func applyHint(be backend.Backend, h hint) {
	switch h.op {
	case hintPut:
		be.Put(h.table, h.pkey, h.ckey, h.value)
	case hintDelete:
		be.Delete(h.table, h.pkey, h.ckey)
	case hintDrop:
		be.DropPartition(h.table, h.pkey)
	}
}

// replayHint is applyHint with puts going through the stamp guard
// (putIfNewer). Replayed hints (revive, fault-clear, reopen) and
// quorum-write tails can interleave with writes the node accepted live,
// so blind application could roll a row back.
func replayHint(be backend.Backend, h hint) {
	if h.op == hintPut {
		putIfNewer(be, h.table, h.pkey, h.ckey, h.value)
		return
	}
	applyHint(be, h)
}

// Put writes value under (table, pkey, ckey) on every replica,
// overwriting an existing row. With the default write quorum the call
// returns after every replica applied (or hinted) the write; with
// WriteQuorum w < r it returns after w live acknowledgements and the
// remaining replicas complete in the background.
func (c *Cluster) Put(table, pkey, ckey string, value []byte) {
	c.write(hint{op: hintPut, table: table, pkey: pkey, ckey: ckey, value: wrapStamp(c.stamp.Add(1), value)})
	c.bytesWritten.Add(int64(len(value)))
}

// Get reads the row at (table, pkey, ckey). With the default read
// quorum one replica serves, failing over to the next on a down or
// faulting node; with ReadQuorum > 1 the read consults that many
// replicas, answers with the newest version by stamp, and queues
// asynchronous read-repair for any replica observed stale. The
// returned slice is the caller's to keep.
func (c *Cluster) Get(table, pkey, ckey string) ([]byte, bool) {
	c.readGate.RLock()
	defer c.readGate.RUnlock()
	var cs CallStats
	res := c.readKey(context.Background(), KeyRef{Table: table, PKey: pkey, CKey: ckey}, c.cfg.ReadQuorum, nil, &cs)
	return res.Value, res.Found
}

// ScanPrefix returns all rows in the partition whose clustering key starts
// with prefix, in clustering order, as one contiguous scan (single
// operation cost plus bytes), served by the first responsive replica.
// With ReadQuorum > 1 the scan consults that many replicas, merges the
// newest version of every row by stamp and queues read-repair for
// replicas observed stale or missing rows.
func (c *Cluster) ScanPrefix(table, pkey, prefix string) []Row {
	c.readGate.RLock()
	defer c.readGate.RUnlock()
	var cs CallStats
	return c.readScan(context.Background(), ScanRef{Table: table, PKey: pkey, Prefix: prefix}, c.cfg.ReadQuorum, nil, &cs)
}

// ScanPartition returns every row of the partition in clustering order.
func (c *Cluster) ScanPartition(table, pkey string) []Row {
	return c.ScanPrefix(table, pkey, "")
}

// KeyRef names one row for a batched cluster read. It is the same
// triple the backend layer consumes (backend.KeyRead), so a node's
// batch passes straight through to its engine without conversion.
type KeyRef = backend.KeyRead

// ScanRef names one prefix scan for a batched cluster read.
type ScanRef struct {
	Table, PKey, Prefix string
}

// GetResult is the outcome of one KeyRef of a MultiGet.
type GetResult struct {
	Value []byte
	Found bool
}

// CallStats is the exact accounting of one batched read call: the same
// quantities the cluster-wide Metrics counters accumulate, attributed
// to the call that incurred them. Every site that charges one of these
// counters charges the call's stats with it (serveNode, countReads) —
// never diff the shared cumulative counters around a call, which would
// misattribute concurrent work. The query layer folds these into
// per-query plan traces.
type CallStats struct {
	// Reads counts logical operations (one per key or prefix scan).
	Reads int64
	// RoundTrips counts physical storage-node visits.
	RoundTrips int64
	// BytesRead counts the value bytes moved.
	BytesRead int64
	// SimWait is the modelled service time charged to this call.
	SimWait time.Duration
	// NodeWaits splits SimWait by the storage node that served it, one
	// entry per node; nil while the latency model costs nothing.
	NodeWaits []NodeWait
}

// NodeWait is the modelled service time one storage node spent on a
// call.
type NodeWait struct {
	Node int
	Wait time.Duration
}

// charge bills d of modelled service time on node to the call.
func (cs *CallStats) charge(node int, d time.Duration) {
	cs.SimWait += d
	cs.NodeWaits = addNodeWait(cs.NodeWaits, node, d)
}

// add folds another accumulation (one batch's share) into cs.
func (cs *CallStats) add(o CallStats) {
	cs.Reads += o.Reads
	cs.RoundTrips += o.RoundTrips
	cs.BytesRead += o.BytesRead
	cs.SimWait += o.SimWait
	for _, w := range o.NodeWaits {
		cs.NodeWaits = addNodeWait(cs.NodeWaits, w.Node, w.Wait)
	}
}

// addNodeWait adds d to node's entry of ws, appending one if needed.
// A zero d records nothing, so the zero model allocates nothing.
func addNodeWait(ws []NodeWait, node int, d time.Duration) []NodeWait {
	if d == 0 {
		return ws
	}
	for i := range ws {
		if ws[i].Node == node {
			ws[i].Wait += d
			return ws
		}
	}
	return append(ws, NodeWait{Node: node, Wait: d})
}

// RoundTime is the modelled duration of one batched store round made of
// calls issued concurrently. A node serves its visits one after another
// under its service lock, so it is busy for the sum of what every call
// charged it; the round lasts as long as its busiest node.
func RoundTime(calls ...CallStats) time.Duration {
	var busy []NodeWait
	for _, cs := range calls {
		for _, w := range cs.NodeWaits {
			busy = addNodeWait(busy, w.Node, w.Wait)
		}
	}
	var longest time.Duration
	for _, w := range busy {
		longest = max(longest, w.Wait)
	}
	return longest
}

// countReads charges logical reads and the payload bytes they returned
// to the cluster counters and to the calling read's stats.
func (c *Cluster) countReads(cs *CallStats, reads, bytes int) {
	c.reads.Add(int64(reads))
	c.bytesRead.Add(int64(bytes))
	cs.Reads += int64(reads)
	cs.BytesRead += int64(bytes)
}

// batch is one concurrently served share of a batched read. At R=1 it
// is everything one storage node serves, in a single visit; at R>1
// (node nil) it is the requests of one partition, each of which needs
// every consulted replica's answer and is served by its own quorum
// read.
type batch struct {
	node *storageNode
	idxs []int
}

// planBatches groups request indexes into batches. At R=1 it picks a
// read replica once per partition (so all keys of a partition travel in
// the same request) and groups by the chosen storage node; partitions
// with no live replica are left out entirely (their results stay
// zero-valued, like a store miss).
func (c *Cluster) planBatches(n int, at func(i int) (table, pkey string), quorum bool) []*batch {
	type part struct{ table, pkey string }
	byPart := make(map[part]*batch)
	byNode := make(map[*storageNode]*batch)
	var out []*batch
	var rt route
	for i := 0; i < n; i++ {
		table, pkey := at(i)
		k := part{table, pkey}
		b, seen := byPart[k]
		if !seen {
			if quorum {
				b = &batch{}
				out = append(out, b)
			} else if node := c.pickRead(table, pkey, &rt); node != nil {
				if b = byNode[node]; b == nil {
					b = &batch{node: node}
					byNode[node] = b
					out = append(out, b)
				}
			}
			byPart[k] = b
		}
		if b != nil {
			b.idxs = append(b.idxs, i)
		}
	}
	return out
}

// pickRead chooses the replica to serve one partition's reads: the
// rotation choice when live, else the next live replica (counted as a
// degraded read), else nil.
func (c *Cluster) pickRead(table, pkey string, rt *route) *storageNode {
	c.readRoute(table, pkey, rt)
	n := len(rt.nodes)
	if n == 0 {
		return nil
	}
	start := 0
	if n > 1 {
		start = int(atomic.AddUint64(&c.rr, 1) % uint64(n))
	}
	for i := 0; i < n; i++ {
		node := rt.nodes[(start+i)%n]
		if !node.down.Load() {
			if i > 0 {
				c.degradedReads.Add(1)
			}
			return node
		}
	}
	return nil
}

// readBatches is the frame both batched reads run in: take the read
// gate, plan the batches for the active read quorum r, and serve them
// concurrently, so the wall-clock cost is the busiest node's service
// time. serve returns what its batch charged (accumulated privately, so
// visits need no lock), folded into the call's total when it finishes.
// Batches not yet started when ctx is cancelled are skipped entirely:
// their results stay zero-valued and nothing is charged for them.
func (c *Cluster) readBatches(ctx context.Context, n int, at func(i int) (table, pkey string), serve func(b *batch, r int) CallStats) CallStats {
	var total CallStats
	if n == 0 {
		return total
	}
	c.readGate.RLock()
	defer c.readGate.RUnlock()
	r := c.cfg.ReadQuorum
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, b := range c.planBatches(n, at, r > 1) {
		wg.Add(1)
		go func(b *batch) {
			defer wg.Done()
			if ctx.Err() != nil {
				return
			}
			cs := serve(b, r)
			mu.Lock()
			total.add(cs)
			mu.Unlock()
		}(b)
	}
	wg.Wait()
	return total
}

// MultiGet is MultiGetStatsCtx for callers with neither a deadline nor
// a use for the call's stats.
func (c *Cluster) MultiGet(refs []KeyRef) []GetResult {
	out, _ := c.MultiGetStatsCtx(context.Background(), refs)
	return out
}

// MultiGetStatsCtx reads a batch of rows, grouping the keys per storage
// node and serving each node's share in one request: one base-latency
// charge per machine round-trip instead of per key (the executor half of
// the query-manager plan, paper Figure 3c). Results are positional:
// out[i] answers refs[i]. The CallStats report the logical reads, node
// round-trips, bytes and modelled wait this call (and only this call)
// charged to the cluster counters, the wait also split by node
// (RoundTime reads it).
//
// With ReadQuorum > 1 every key is served through its own quorum read
// instead (R visits per key — divergence detection needs every
// replica's answer per key), partitions running concurrently.
//
// Node visits not yet started when ctx is cancelled are skipped, and a
// visit held by an injected fault's ExtraLatency returns early. The caller
// must check ctx.Err() after the call — results are incomplete once it
// is non-nil, and a Found=false under cancellation means "unknown", not
// "absent".
func (c *Cluster) MultiGetStatsCtx(ctx context.Context, refs []KeyRef) ([]GetResult, CallStats) {
	out := make([]GetResult, len(refs))
	at := func(i int) (string, string) { return refs[i].Table, refs[i].PKey }
	cs := c.readBatches(ctx, len(refs), at, func(b *batch, r int) (bs CallStats) {
		if b.node != nil {
			reqs := make([]backend.KeyRead, len(b.idxs))
			for j, i := range b.idxs {
				reqs[j] = refs[i]
			}
			var vals [][]byte
			err := c.serveNode(ctx, b.node, &bs, func(n *storageNode) int {
				vals = n.be.MultiGet(reqs)
				total := 0
				for _, v := range vals {
					total += len(v)
				}
				return total
			})
			if err == nil {
				total := 0
				for j, i := range b.idxs {
					if v := vals[j]; v != nil {
						_, val := splitStamp(v)
						out[i] = GetResult{Value: val, Found: true}
						total += len(val)
					}
				}
				c.countReads(&bs, len(b.idxs), total)
				return bs
			}
			// The whole node visit failed (it went down or errored under
			// us): serve each key from the partition's other replicas.
			c.failovers.Add(1)
		}
		for _, i := range b.idxs {
			if ctx.Err() != nil {
				break
			}
			out[i] = c.readKey(ctx, refs[i], r, b.node, &bs)
		}
		return bs
	})
	return out, cs
}

// MultiScanStatsCtx runs a batch of prefix scans, grouped per storage
// node like MultiGetStatsCtx: each node serves its share of scans under
// one base-latency charge. out[i] holds the rows of refs[i], in
// clustering order. Cancellation and ReadQuorum > 1 behave as there:
// skipped visits leave nil row slices, so the caller must treat results
// as incomplete once ctx.Err() is non-nil.
func (c *Cluster) MultiScanStatsCtx(ctx context.Context, refs []ScanRef) ([][]Row, CallStats) {
	out := make([][]Row, len(refs))
	at := func(i int) (string, string) { return refs[i].Table, refs[i].PKey }
	cs := c.readBatches(ctx, len(refs), at, func(b *batch, r int) (bs CallStats) {
		if b.node != nil {
			err := c.serveNode(ctx, b.node, &bs, func(n *storageNode) int {
				total := 0
				for _, i := range b.idxs {
					rows := n.be.ScanPrefix(refs[i].Table, refs[i].PKey, refs[i].Prefix)
					out[i] = rows
					total += rowBytes(rows)
				}
				return total
			})
			if err == nil {
				total := 0
				for _, i := range b.idxs {
					total += unwrapRows(out[i])
				}
				c.countReads(&bs, len(b.idxs), total)
				return bs
			}
			c.failovers.Add(1)
		}
		for _, i := range b.idxs {
			if ctx.Err() != nil {
				break
			}
			out[i] = c.readScan(ctx, refs[i], r, b.node, &bs)
		}
		return bs
	})
	return out, cs
}

// Delete removes a row from all replicas.
func (c *Cluster) Delete(table, pkey, ckey string) {
	c.write(hint{op: hintDelete, table: table, pkey: pkey, ckey: ckey})
}

// DropPartition removes an entire partition from all replicas.
func (c *Cluster) DropPartition(table, pkey string) {
	c.write(hint{op: hintDrop, table: table, pkey: pkey})
}

// PartitionKeys returns all partition keys of a table (union over nodes),
// sorted. Intended for inspection and maintenance, not the data path.
func (c *Cluster) PartitionKeys(table string) []string {
	var out []string
	for _, p := range c.allPartitions() {
		if p.table == table {
			out = append(out, p.pkey)
		}
	}
	sort.Strings(out)
	return out
}

// Flush makes every node's accepted writes durable (fsync for disk
// engines) and returns the first error encountered.
func (c *Cluster) Flush() error {
	var firstErr error
	for _, node := range c.nodeList() {
		node.mu.Lock()
		var err error
		if !node.closed {
			err = node.be.Flush()
		}
		node.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("kvstore: flush node %d: %w", node.id, err)
		}
	}
	return firstErr
}

// Close flushes and closes every node's engine, waiting out an active
// rebalance first (its streaming must not race the teardown), then the
// background workers (read-repair, anti-entropy) and any quorum-write
// tails still completing. The cluster must not be used afterwards.
func (c *Cluster) Close() error {
	var errs []error
	if err := c.WaitRebalance(); err != nil {
		errs = append(errs, err)
	}
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.bg.Wait()
	// Barrier: a write returned at quorum may still have replica applies
	// in flight; they hold the write gate's read side until done.
	c.writeGate.Lock()
	c.writeGate.Unlock() //nolint:staticcheck // empty critical section is the barrier
	for _, node := range c.nodeList() {
		node.mu.Lock()
		var err error
		if !node.closed {
			node.closed = true
			err = node.be.Close()
		}
		node.mu.Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("kvstore: close node %d: %w", node.id, err))
		}
		node.hintMu.Lock()
		if node.hlog != nil {
			if err := node.hlog.Close(); err != nil {
				errs = append(errs, fmt.Errorf("kvstore: close hint log %d: %w", node.id, err))
			}
			node.hlog = nil
		}
		node.hintMu.Unlock()
	}
	return errors.Join(errs...)
}

// tierTotals sums the cumulative tier counters of every node engine
// that tracks them.
func (c *Cluster) tierTotals() backend.TierCounters {
	var t backend.TierCounters
	for _, node := range c.nodeList() {
		tiered, ok := node.be.(backend.Tiered)
		if !ok {
			continue
		}
		tc := tiered.TierCounters()
		t.HotHits += tc.HotHits
		t.ColdReads += tc.ColdReads
		t.FlushedBytes += tc.FlushedBytes
		t.Compactions += tc.Compactions
		t.HotBytes += tc.HotBytes
	}
	return t
}

// Metrics returns a snapshot of the counters.
func (c *Cluster) Metrics() Metrics {
	tiers := c.tierTotals()
	c.tierBaseMu.Lock()
	base := c.tierBase
	c.tierBaseMu.Unlock()
	active := int64(0)
	if c.Rebalancing() {
		active = 1
	}
	return Metrics{
		Reads:        c.reads.Load(),
		Writes:       c.writes.Load(),
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
		RoundTrips:   c.roundTrips.Load(),
		SimWait:      time.Duration(c.simWait.Load()),

		Failovers:             c.failovers.Load(),
		DegradedReads:         c.degradedReads.Load(),
		UnderReplicatedWrites: c.underRepWrites.Load(),
		HintedWrites:          c.hintedWrites.Load(),

		ReadRepairs:           c.readRepairs.Load(),
		AntiEntropyRuns:       c.aeRuns.Load(),
		AntiEntropyPartitions: c.aeParts.Load(),
		AntiEntropyRows:       c.aeRows.Load(),
		AntiEntropyBytes:      c.aeBytes.Load(),

		RebalancedPartitions: c.rebalancedParts.Load(),
		RebalancedRows:       c.rebalancedRows.Load(),
		RebalancedBytes:      c.rebalancedBytes.Load(),
		RebalanceActive:      active,

		TierHotReads:  tiers.HotHits - base.HotHits,
		TierColdReads: tiers.ColdReads - base.ColdReads,
		FlushedBytes:  tiers.FlushedBytes - base.FlushedBytes,
		Compactions:   tiers.Compactions - base.Compactions,
		TierHotBytes:  tiers.HotBytes,
	}
}

// ResetMetrics zeroes the read/write counters (stored bytes are kept).
// Tier counters are cumulative inside the engines, so the reset records
// a baseline that Metrics subtracts.
func (c *Cluster) ResetMetrics() {
	c.reads.Store(0)
	c.writes.Store(0)
	c.bytesRead.Store(0)
	c.bytesWritten.Store(0)
	c.roundTrips.Store(0)
	c.simWait.Store(0)
	c.failovers.Store(0)
	c.degradedReads.Store(0)
	c.underRepWrites.Store(0)
	c.hintedWrites.Store(0)
	c.readRepairs.Store(0)
	c.aeRuns.Store(0)
	c.aeParts.Store(0)
	c.aeRows.Store(0)
	c.aeBytes.Store(0)
	c.rebalancedParts.Store(0)
	c.rebalancedRows.Store(0)
	c.rebalancedBytes.Store(0)
	totals := c.tierTotals()
	c.tierBaseMu.Lock()
	c.tierBase = totals
	c.tierBaseMu.Unlock()
}

// Backup writes a consistent copy of every node engine's durable state
// into dir (one node-NNN subdirectory each, mirroring the Factory
// layouts of the disk engines). The engines snapshot themselves under
// their own locks and copy outside them (backend.Backuper), so reads —
// including reads served by the node being copied — proceed while a
// large backup streams; the caller must not issue writes concurrently
// if the backup is to be cluster-consistent. Engines that are not
// durable (no Backuper) fail the backup, as does an in-flight topology
// change (the copy would mix placements).
func (c *Cluster) Backup(dir string) error {
	if c.Rebalancing() {
		return fmt.Errorf("kvstore: backup: %w", ErrRebalancing)
	}
	for _, node := range c.nodeList() {
		b, ok := node.be.(backend.Backuper)
		if !ok {
			return fmt.Errorf("kvstore: backup: node %d engine (%T) is not durable", node.id, node.be)
		}
		if err := b.Backup(filepath.Join(dir, backend.NodeDir(node.id))); err != nil {
			return fmt.Errorf("kvstore: backup node %d: %w", node.id, err)
		}
	}
	return nil
}

// StoredBytes returns the physical bytes currently stored across all
// replicas (sum of every node engine's live bytes).
func (c *Cluster) StoredBytes() int64 {
	var total int64
	for _, node := range c.nodeList() {
		node.mu.Lock()
		if !node.closed {
			total += node.be.StoredBytes()
		}
		node.mu.Unlock()
	}
	return total
}

// LogicalBytes returns stored bytes divided by the replication factor —
// the index size figure used in Table 1 comparisons.
func (c *Cluster) LogicalBytes() int64 {
	return c.StoredBytes() / int64(c.cfg.Replication)
}

func (c *Cluster) String() string {
	return fmt.Sprintf("kvstore(m=%d, r=%d)", c.Machines(), c.cfg.Replication)
}
