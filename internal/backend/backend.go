// Package backend defines the pluggable storage engine behind each node
// of the kvstore cluster. The cluster keeps the distribution concerns —
// placement by partition key, replication, the latency cost model and
// per-node service serialization — while a Backend owns the actual rows
// of one node: table-scoped partitions of rows sorted by clustering key.
//
// Three engines ship with the repository:
//
//   - memtable: the original in-process sorted-slice store (no
//     durability; what the paper's evaluation simulates),
//   - disklog: a durable append-only engine over a record log
//     (internal/reclog), with log-replay recovery and compaction, whose
//     index can keep the values of the most recently written rows in
//     memory up to a byte budget, and
//   - tiered: the directory layout of a disklog with such a budget —
//     recent timespans are served from memory, history stays on disk.
//
// Future adapters (a real Cassandra client, an object-storage cold
// tier, ...) plug in behind the same interface.
//
// What an engine must and may implement:
//
//   - required: Backend — point, batched (MultiGet) and prefix reads,
//     writes, partition and table enumeration (PartitionKeys, Tables),
//     StoredBytes, Flush, Close. The cluster calls all of it
//     unconditionally; nothing here is probed.
//   - optional: Tiered (engines that count reads served from memory
//     and from disk), Backuper (durable engines).
//     Each is probed by one type assertion in kvstore and has a stated
//     behaviour for engines without it.
package backend

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// Row is one clustered row inside a partition.
type Row struct {
	CKey  string
	Value []byte
}

// Backend is the storage engine of a single cluster node. The cluster
// serializes access per node (one operation at a time under the node's
// service lock), so implementations do not need to be internally
// synchronized for cluster use — though disklog is, to keep standalone
// use safe.
//
// Ownership: Put may retain the value slice (the cluster hands each
// backend an immutable copy); Get and ScanPrefix must return values the
// caller may freely modify.
//
// Error model: the read/write methods mirror the cluster's surface and
// return no errors. Durable engines record I/O failures internally and
// surface them at the next Flush or Close; a read hitting a failed
// device reports not-found. Using an engine after Close is a
// programming error and may panic.
type Backend interface {
	// Get returns the value at (table, pkey, ckey).
	Get(table, pkey, ckey string) ([]byte, bool)
	// Put stores value under (table, pkey, ckey), overwriting any
	// existing row. Write errors of durable engines surface at the next
	// Flush or Close (WAL semantics).
	Put(table, pkey, ckey string, value []byte)
	// MultiGet serves many point reads in one engine call, so the
	// cluster resolves a node's whole share of a batched read plan under
	// a single service charge (and the engine can amortize its per-call
	// overhead — lock acquisition, partition lookup). result[i] is nil
	// exactly when reqs[i] is absent (a present row with an empty value
	// yields a non-nil empty slice), and every returned value is the
	// caller's to keep.
	MultiGet(reqs []KeyRead) [][]byte
	// ScanPrefix returns the partition's rows whose clustering key
	// starts with prefix, in clustering order.
	ScanPrefix(table, pkey, prefix string) []Row
	// Delete removes a row, reporting whether it existed.
	Delete(table, pkey, ckey string) bool
	// DropPartition removes an entire partition.
	DropPartition(table, pkey string)
	// PartitionKeys returns the sorted partition keys of a table.
	PartitionKeys(table string) []string
	// Tables returns the sorted names of the tables the engine holds
	// rows for. The cluster's rebalancer, anti-entropy sweep and
	// topology report walk Tables + PartitionKeys to enumerate a node's
	// partitions.
	Tables() []string
	// StoredBytes returns the logical live bytes held by this node
	// (sum over rows of clustering-key and value lengths).
	StoredBytes() int64
	// Flush makes all writes accepted so far durable (fsync for disk
	// engines; no-op for memory) and reports any pending write error.
	Flush() error
	// Close flushes and releases the engine. The backend must not be
	// used afterwards.
	Close() error
}

// KeyRead names one row of a batched point read.
type KeyRead struct {
	Table, PKey, CKey string
}

// MultiGet serves a batch of point reads from be.
func MultiGet(be Backend, reqs []KeyRead) [][]byte { return be.MultiGet(reqs) }

// TierCounters reports where an engine that keeps some rows in memory
// over a disk log served its reads. HotHits and ColdReads are
// cumulative row-lookup counters attributed to the tier that SERVED the
// row: a lookup answered from memory counts once in HotHits; one read
// from disk counts in ColdReads. FlushedBytes counts value bytes written
// to disk; Compactions counts the disk log's compactions. HotBytes is a
// gauge: the bytes currently resident in memory.
type TierCounters struct {
	HotHits      int64
	ColdReads    int64
	FlushedBytes int64
	Compactions  int64
	HotBytes     int64
}

// Tiered is the optional interface of engines that count reads served
// from memory and from disk (disklog, with or without a memory budget).
// TierCounters feeds the cluster's Metrics; it must be cheap and safe to
// call concurrently with operations (atomic counters). Engines without
// it report zero tier counters.
type Tiered interface {
	TierCounters() TierCounters
}

// DigestRows computes the canonical digest of a partition's rows for
// anti-entropy comparison: FNV-1a over length-prefixed clustering keys
// and values, in clustering order. Every engine must digest identical
// rows identically, so replicas on different engine types can still be
// compared — which is why this helper, not the engines, defines the
// byte layout.
func DigestRows(rows []Row) uint64 {
	h := fnv.New64a()
	var n [4]byte
	for _, r := range rows {
		binary.LittleEndian.PutUint32(n[:], uint32(len(r.CKey)))
		h.Write(n[:])
		h.Write([]byte(r.CKey))
		binary.LittleEndian.PutUint32(n[:], uint32(len(r.Value)))
		h.Write(n[:])
		h.Write(r.Value)
	}
	return h.Sum64()
}

// Backuper is an optional interface of durable engines that can write a
// consistent copy of their on-disk state into a fresh directory. Backup
// must tolerate concurrent foreground operations: the engine snapshots
// its file set under its own locks (after making accepted writes
// durable) and copies outside them, deferring any background work that
// would delete or rewrite the snapshotted files — so reads keep being
// served while a large backup streams. Writes accepted after the
// snapshot point are not part of the copy. The target must be validated
// in full before anything is written: a failing backup leaves the
// target directory unchanged. The copy must be openable by the same
// engine as if it were the original directory.
type Backuper interface {
	Backup(dir string) error
}

// Factory creates the backend for cluster node idx. Factories are how a
// cluster is parameterized over engines: the node index lets durable
// engines derive a per-node directory.
type Factory func(node int) (Backend, error)

// NodeDir names node idx's directory under a store root. Every durable
// factory and the cluster's Backup must agree on this layout: a drift
// would make a restored backup open as an empty store.
func NodeDir(idx int) string { return fmt.Sprintf("node-%03d", idx) }
