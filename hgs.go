// Package hgs is the Historical Graph Store: a system for storing large
// volumes of historical graph data and running temporal graph analytics
// against it, reproducing Khurana & Deshpande, "Storing and Analyzing
// Historical Graph Data at Scale" (EDBT 2016).
//
// A Store wraps the two components of the paper:
//
//   - the Temporal Graph Index (TGI), which compactly persists the entire
//     change history of a graph in a (simulated) distributed key-value
//     store and retrieves snapshots, node histories, and neighborhood
//     versions, and
//   - the Temporal Graph Analysis Framework (TAF), which runs
//     set-of-temporal-nodes analytics on a parallel compute engine.
//
// Quickstart:
//
//	store, _ := hgs.Open(hgs.Options{})
//	_ = store.Load(events)                  // chronological events
//	g, _ := store.Snapshot(t)               // graph as of t
//	h, _ := store.NodeHistory(42, t0, t1)   // one node's evolution
//	a := store.Analytics(4)                 // 4 workers
//	son, _ := a.SON().Timeslice(hgs.NewInterval(t0, t1)).Fetch()
//
// # Durable stores
//
// By default the store is in-memory and the index disappears with the
// process. Setting Options.DataDir switches every storage node to the
// disk engine, an append-only record log (internal/backend/disklog): the index
// is persisted under that directory, Close flushes it, and a later
// Open with the same DataDir reattaches to the existing index — no
// Load required, queries work immediately:
//
//	store, _ := hgs.Open(hgs.Options{DataDir: "/var/lib/hgs"})
//	if !store.Loaded() {                    // first run only
//		_ = store.Load(events)
//	}
//	g, _ := store.Snapshot(t)               // also after a restart
//	defer store.Close()
//
// The cluster shape (Machines, Replication), the storage engine, and
// the TGI construction parameters are persisted with the data.
// Reopening adopts them: explicitly set Machines/Replication/Engine
// conflicting with the stored values are rejected, while TGI
// construction options (TimespanEvents, Compress, ...) are properties
// of the stored index and are ignored on reattach in favor of the
// persisted configuration.
//
// # Tiered storage and backup
//
// With Engine set to EngineTiered (DataDir required), every storage
// node runs the same disk engine with a memory budget: its index keeps
// a copy of the most recently written rows' values, up to HotBytes,
// while the log on disk holds every row. Writes go to disk, queries
// over recent timespans are served without disk reads, and history
// stays durable and cheap:
//
//	store, _ := hgs.Open(hgs.Options{
//		DataDir:  "/var/lib/hgs",
//		Engine:   hgs.EngineTiered,
//		HotBytes: 256 << 20, // keep the newest ~256 MiB in memory
//	})
//	defer store.Close()
//	st, _ := store.Stats()
//	fmt.Println(st.StoreMetrics.TierHotReads,  // served from memory
//		st.StoreMetrics.TierColdReads)     // read from disk
//
// Restarts do not demote the hot working set: reopening replays each
// node's log to rebuild its index, and the replay keeps the values of
// the log's final HotBytes, so the store serves recent timespans from
// memory as soon as Open returns. The plain disk engine
// (EngineDisk) has no budget and reads every row from disk; it reports
// those reads as TierColdReads.
//
// Store.Backup copies a quiesced durable store (any disk engine) into a
// fresh directory that opens like the original:
//
//	_ = store.Backup("/backups/hgs-2026-07-28")
//	copy, _ := hgs.Open(hgs.Options{DataDir: "/backups/hgs-2026-07-28"})
//
// The hgs-inspect command exposes the same with -engine tiered and
// -backup DIR.
//
// A DataDir admits ONE live Store at a time: every storage node locks
// its directory exclusively, so a second Open fails fast instead of
// two handles appending over each other's writes. The lock dies with
// the process.
//
// # Caching and statistics
//
// Every retrieval runs through a unified fetch layer that plans the key
// set, batches the reads per storage node (one network round-trip per
// machine instead of per key), and serves hot decoded deltas from a
// bytes-bounded cache, so repeated snapshot and node queries mostly
// skip the store. The cache is a segmented LRU (one large scan cannot
// evict the proven-hot protected set) and remembers absence: a point
// read that found no row installs a tiny negative marker, so repeated
// probes of sparse history stop issuing KV reads. Options.CacheBytes
// sizes the cache (default 64 MiB; negative disables it) and
// Store.Stats reports its effectiveness next to the raw store counters:
//
//	store, _ := hgs.Open(hgs.Options{CacheBytes: 256 << 20})
//	_ = store.Load(events)
//	g1, _ := store.Snapshot(t)              // cold: reads the store
//	g2, _ := store.Snapshot(t)              // warm: served from cache
//	st, _ := store.Stats()
//	fmt.Println(st.Cache.Hits, st.Cache.NegativeHits)  // delta cache
//	fmt.Println(st.StoreMetrics.Reads,                 // logical KV ops
//		st.StoreMetrics.RoundTrips)                // machine visits
//
// # Plan tracing
//
// Every retrieval can explain itself: a plan trace records the planned
// key set, the per-table cache-hit / negative-hit / KV-read breakdown,
// and the exact round-trips and simulated wait the call was charged.
// Trace one call by passing FetchOptions.Trace, or set
// Options.TracePlans to keep a ring of recent traces store-side
// (Store.PlanTraces, Stats().Traces, hgs-inspect -trace):
//
//	tr := &hgs.Trace{}
//	g, _ := store.SnapshotWith(t, &hgs.FetchOptions{Trace: tr})
//	rec := tr.Record()
//	fmt.Println(rec.KVReads, rec.CacheHits, rec.NegativeHits)
//
// # Serving
//
// cmd/hgs-server exposes a Store over HTTP/JSON: every query method has
// an endpoint, large snapshot and history responses stream as NDJSON,
// an in-flight limiter sheds overload with 429, and per-request
// deadlines ride the context plumbing below. The store's observability
// endpoints (/metrics, /debug/pprof/*, /traces) mount into any mux via
// Store.DebugHandler. The benchmark's serve_http workload (benchmark/)
// drives a spawned server closed- and open-loop and reports throughput,
// latency and the shed ratio. See README "Serving".
//
// A retrieval's deadline and cancellation travel in
// FetchOptions.Context (SnapshotWith, NodeWith, ...) and propagate
// through the fetch layer into the simulated cluster: batched store
// rounds abandon their waits, decode and materialize workers stop at
// partition boundaries, and the call returns ctx.Err() promptly without
// leaking goroutines or polluting the cache. A nil Context, like a nil
// FetchOptions, means context.Background().
//
// Failures surface as typed sentinels — ErrNotLoaded, ErrClosed,
// ErrNodeNotFound, ErrOutOfRange — matched with errors.Is; the server
// maps them to HTTP statuses (409, 503, 404, 416, plus 504/499 for
// context.DeadlineExceeded/Canceled).
//
// # API stability
//
// The options surface splits by lifetime, and new knobs land in the
// tier they belong to rather than as new method variants:
//
//   - Index-construction options (Options.TimespanEvents, Arity,
//     Compress, ...) are properties of the stored index: persisted with
//     a DataDir, adopted on reattach, conflicting values rejected.
//   - Process-runtime options (Options.CacheBytes, TracePlans, ...)
//     are properties of the reading process: never persisted, kept
//     across a reattach.
//   - Per-call options travel in FetchOptions — the one options struct
//     of the query API (Context, Clients, Trace). Nil always means
//     defaults.
package hgs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hgs/internal/backend"
	"hgs/internal/backend/disklog"
	"hgs/internal/backend/tiered"
	"hgs/internal/core"
	"hgs/internal/fetch"
	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/obs"
	"hgs/internal/partition"
	"hgs/internal/ring"
	"hgs/internal/sparklite"
	"hgs/internal/taf"
	"hgs/internal/temporal"
)

// Re-exported model types. The full method sets are documented on the
// internal definitions.
type (
	// Time is a discrete timepoint (user-defined clock: Unix millis,
	// sequence numbers, ...).
	Time = temporal.Time
	// Interval is a half-open time range [Start, End).
	Interval = temporal.Interval
	// NodeID identifies a vertex across the whole history.
	NodeID = graph.NodeID
	// Event is one atomic change to the graph.
	Event = graph.Event
	// EventKind enumerates change types.
	EventKind = graph.EventKind
	// Graph is an in-memory snapshot with the network metrics library.
	// A Graph a query returns may share its node states with the store's
	// cache and with other answers; its methods (Apply, AddEdge,
	// RemoveNode, ...) copy a shared state on its first write, so
	// changing an answer through them is safe.
	Graph = graph.Graph
	// NodeState is a node's state at one point in time. States reached
	// through a query answer are read-only: change them through Graph's
	// methods, or Clone one and change the copy.
	NodeState = graph.NodeState
	// Attrs is a key-value attribute map.
	Attrs = graph.Attrs
	// NodeHistory is a node's evolution over an interval.
	NodeHistory = core.NodeHistory
	// SubgraphHistory is a neighborhood's evolution over an interval.
	SubgraphHistory = core.SubgraphHistory
	// FetchOptions tunes a single retrieval (parallel fetch factor c,
	// per-call plan trace).
	FetchOptions = core.FetchOptions
	// Trace collects one retrieval's plan/cache/read breakdown when
	// passed through FetchOptions.Trace (zero value ready; read it back
	// with Record).
	Trace = fetch.Trace
	// TraceRecord is the immutable snapshot of a plan trace, as returned
	// by Trace.Record, Store.PlanTraces and Stats().Traces.
	TraceRecord = fetch.TraceRecord
	// TableTrace is the per-store-table slice of a TraceRecord.
	TableTrace = fetch.TableTrace
	// CacheStats is the decoded-delta cache counter snapshot in
	// Stats().Cache (hits, negative hits, admissions, protected bytes).
	CacheStats = fetch.CacheStats
)

// Typed sentinel errors of the query API, matched with errors.Is. They
// originate in the core layer (so internal packages can return them)
// and surface here; the HTTP server maps each to a status code.
var (
	// ErrNotLoaded: the store holds no index yet — Load a history
	// first (HTTP 409).
	ErrNotLoaded = core.ErrNotLoaded
	// ErrClosed: the store has been Closed (HTTP 503).
	ErrClosed = core.ErrClosed
	// ErrNodeNotFound: the requested node does not exist at the
	// requested time (HTTP 404).
	ErrNodeNotFound = core.ErrNodeNotFound
	// ErrOutOfRange: a requested time lies outside the indexed history
	// (HTTP 416).
	ErrOutOfRange = core.ErrOutOfRange
	// ErrFormat: the data directory holds a store of another format
	// than this build reads; it is refused, not migrated. Rebuild it
	// by re-loading its event history.
	ErrFormat = core.ErrFormat
)

// Event kind constants re-exported for event construction.
const (
	AddNode     = graph.AddNode
	RemoveNode  = graph.RemoveNode
	AddEdge     = graph.AddEdge
	RemoveEdge  = graph.RemoveEdge
	SetNodeAttr = graph.SetNodeAttr
	DelNodeAttr = graph.DelNodeAttr
	SetEdgeAttr = graph.SetEdgeAttr
	DelEdgeAttr = graph.DelEdgeAttr
)

// NewInterval returns the half-open interval [start, end).
func NewInterval(start, end Time) Interval { return temporal.NewInterval(start, end) }

// StorageEngine selects the per-node storage engine of the cluster.
type StorageEngine string

const (
	// EngineAuto picks EngineMemory, or EngineDisk when DataDir is set
	// (today's defaults). Reattaching to an existing DataDir adopts the
	// engine it was created with.
	EngineAuto StorageEngine = ""
	// EngineMemory is the in-process memtable: no durability, the
	// paper's simulated cluster.
	EngineMemory StorageEngine = "memory"
	// EngineDisk is the durable record-log engine (disklog); requires
	// DataDir.
	EngineDisk StorageEngine = "disk"
	// EngineTiered is the disk engine with a memory budget: it keeps
	// the values of the most recently written rows in memory, up to
	// Options.HotBytes; requires DataDir.
	EngineTiered StorageEngine = "tiered"
)

func (e StorageEngine) valid() bool {
	switch e {
	case EngineAuto, EngineMemory, EngineDisk, EngineTiered:
		return true
	}
	return false
}

// Options configure a Store. The zero value is a sensible single-machine
// development setup; the fields mirror the paper's knobs.
type Options struct {
	// Machines is the storage cluster size m (default 2).
	Machines int
	// Replication is the storage replication factor r (default 1).
	Replication int
	// VirtualNodes is the number of points each storage node projects
	// onto the consistent-hash placement ring (default 64). Placement
	// depends on it, so the value is persisted with a DataDir store and
	// an explicitly conflicting value is rejected on reopen.
	VirtualNodes int
	// RebalanceRate caps the background data streaming of a topology
	// change (AddStorageNode/RemoveStorageNode) in bytes per second:
	// zero picks the 8 MiB/s default, negative disables the limit. A
	// runtime knob, not persisted.
	RebalanceRate int64
	// ReadQuorum is the number of replicas a storage read consults (R).
	// The default 1 reads one replica (failing over past down nodes);
	// with R > 1 reads fan out, answer with the newest version by stamp
	// and repair stale replicas in the background. Clamped to
	// [1, Replication]. A runtime knob, not persisted.
	ReadQuorum int
	// WriteQuorum is the number of replica acknowledgements a storage
	// write waits for (W); default waits for all. With W < Replication
	// the write returns after W live replicas applied it, the rest
	// complete in the background. R+W > Replication keeps reads
	// covering the latest write. A runtime knob, not persisted.
	WriteQuorum int
	// AntiEntropyInterval, when positive, runs the storage cluster's
	// background replica comparator at this period: per-partition merkle
	// digests across replicas, streaming only divergent partitions
	// (rate-limited by RebalanceRate). Zero disables the loop;
	// Store.RepairPartitions triggers a sweep on demand. A runtime
	// knob, not persisted.
	AntiEntropyInterval time.Duration
	// SimulateLatency charges storage reads to kvstore.DefaultLatency
	// instead of the zero model. The model is a clock, not a wait: it
	// fills the modelled service time of metrics and plan traces
	// (SimWait, ModelTime) and never slows a call.
	SimulateLatency bool
	// DataDir, when non-empty, stores every node's data on disk under
	// this directory (one disk engine per node) instead of in
	// memory. The directory is created as needed; reopening a store
	// over an existing DataDir reattaches to the persisted index.
	DataDir string
	// Engine selects the storage engine. The default (EngineAuto)
	// preserves prior behavior: memory, or disk when DataDir is set.
	// EngineTiered keeps hot timespans in memory over a cold disk tier.
	// The engine is persisted with the DataDir; reattaching adopts it,
	// and an explicitly conflicting Engine is rejected.
	Engine StorageEngine
	// HotBytes is the tiered engine's per-node memory budget (default
	// 32 MiB): the values of the most recently written rows, refilled
	// from the log on reopen; once exceeded, the oldest written leave
	// memory and stay on disk. A runtime knob, not persisted.
	HotBytes int64

	// TimespanEvents, EventlistSize, Arity, HorizontalPartitions and
	// PartitionSize are the TGI construction parameters (§4.4); zero
	// values take the defaults (200k, 25k, 2, 4, 500).
	TimespanEvents       int
	EventlistSize        int
	Arity                int
	HorizontalPartitions int
	PartitionSize        int
	// LocalityPartitioning uses min-cut-style micro-partitioning instead
	// of random hashing (§4.5).
	LocalityPartitioning bool
	// Replicate1Hop stores auxiliary frontier micro-deltas to speed up
	// 1-hop neighborhood retrieval (§4.5, Figure 5d).
	Replicate1Hop bool
	// Compress gzip-compresses stored blobs (Figure 13a).
	Compress bool
	// FetchClients is the default parallel fetch factor c (default 4).
	FetchClients int
	// CacheBytes bounds the query manager's decoded-delta cache: hot
	// root-path deltas are decoded once and shared across queries and
	// analytics workers. Zero selects the 64 MiB default; a negative
	// value disables caching. A runtime knob of this process — it is
	// not persisted with a DataDir store.
	CacheBytes int64
	// TracePlans keeps a plan trace for every retrieval — the planned
	// key set and its per-table cache-hit / negative-hit / KV-read
	// breakdown, with exact round-trip and simulated-wait attribution —
	// in a bounded ring surfaced by Store.PlanTraces and Stats().Traces
	// (hgs-inspect -trace prints it). Per-call tracing through
	// FetchOptions.Trace works regardless of this knob. A runtime knob
	// of this process — not persisted with a DataDir store.
	TracePlans bool
}

func (o Options) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	if o.TimespanEvents > 0 {
		cfg.TimespanEvents = o.TimespanEvents
	}
	if o.EventlistSize > 0 {
		cfg.EventlistSize = o.EventlistSize
	}
	if o.Arity > 0 {
		cfg.Arity = o.Arity
	}
	if o.HorizontalPartitions > 0 {
		cfg.HorizontalPartitions = o.HorizontalPartitions
	}
	if o.PartitionSize > 0 {
		cfg.PartitionSize = o.PartitionSize
	}
	if o.LocalityPartitioning {
		cfg.Partitioning = partition.Locality
	}
	cfg.Replicate1Hop = o.Replicate1Hop
	cfg.Compress = o.Compress
	if o.FetchClients > 0 {
		cfg.FetchClients = o.FetchClients
	}
	cfg.CacheBytes = o.CacheBytes
	cfg.TracePlans = o.TracePlans
	return cfg
}

// Store is a Historical Graph Store instance.
type Store struct {
	cluster *kvstore.Cluster
	tgi     *core.TGI
	obs     *obs.Registry
	durable bool
	engine  StorageEngine

	// ingestMu serializes Load and Append: an ingest checks the indexed
	// history's end and then rewrites the trailing timespan, so two of
	// them interleaved would both pass the check and corrupt the index.
	// loaded is written under it and read lock-free by Loaded.
	ingestMu sync.Mutex
	loaded   atomic.Bool

	// closeMu guards closed; active refcounts in-flight operations so
	// Close can drain them before tearing the cluster down.
	closeMu sync.Mutex
	closed  bool
	active  sync.WaitGroup
}

// beginOp registers an in-flight operation. It fails with ErrClosed
// once Close has begun, and otherwise holds off Close's teardown until
// the matching endOp.
func (s *Store) beginOp() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return fmt.Errorf("hgs: %w", ErrClosed)
	}
	s.active.Add(1)
	return nil
}

func (s *Store) endOp() { s.active.Done() }

// clusterMeta records the store format, cluster topology and storage
// engine a data directory was created with, so a reopen cannot silently
// re-shard persisted partitions or misread them through the wrong
// engine or format. Nodes is the explicit member set — a topology
// change (AddStorageNode/RemoveStorageNode) rewrites it at the
// rebalancer's commit point — and VirtualNodes the ring's per-node
// point count, both of which the placement depends on.
type clusterMeta struct {
	Format       int    `json:"format"`
	Machines     int    `json:"machines"`
	Replication  int    `json:"replication"`
	Engine       string `json:"engine"`
	Nodes        []int  `json:"nodes,omitempty"`
	VirtualNodes int    `json:"virtual_nodes,omitempty"`
}

// resolvedMeta is resolveClusterMeta's outcome: the topology to open
// with, and whether cluster.json still needs to be written.
type resolvedMeta struct {
	nodes       []int
	replication int
	vnodes      int
	engine      StorageEngine
	needsWrite  bool
}

// resolveClusterMeta reconciles the requested topology and engine with
// those stored in dataDir. A directory of another store format is
// refused with ErrFormat before anything else is read; rebuild such a
// store by re-loading its event history. Explicit options conflicting
// with persisted values are an error; unset options adopt them.
// needsWrite reports that no shape file exists yet — it is written by
// writeClusterMeta only after the store opens successfully, so a failed
// Open cannot stamp a shape into an otherwise empty directory.
func resolveClusterMeta(dataDir string, opts Options, machines, replication, vnodes int) (resolvedMeta, error) {
	fail := func(err error) (resolvedMeta, error) { return resolvedMeta{}, err }
	requested := opts.Engine
	if requested == EngineAuto {
		requested = EngineDisk
	}
	path := filepath.Join(dataDir, "cluster.json")
	blob, err := os.ReadFile(path)
	switch {
	case err == nil:
		var cm clusterMeta
		if err := json.Unmarshal(blob, &cm); err != nil {
			return fail(fmt.Errorf("hgs: corrupt %s: %w", path, err))
		}
		if cm.Format != core.Format {
			return fail(fmt.Errorf("hgs: data dir %s holds store format %d, this build reads format %d: %w", dataDir, cm.Format, core.Format, ErrFormat))
		}
		if cm.Machines < 1 || cm.Replication < 1 || len(cm.Nodes) != cm.Machines || cm.VirtualNodes < 1 {
			return fail(fmt.Errorf("hgs: corrupt %s: invalid topology m=%d r=%d nodes=%v vnodes=%d", path, cm.Machines, cm.Replication, cm.Nodes, cm.VirtualNodes))
		}
		if opts.Machines > 0 && opts.Machines != cm.Machines {
			return fail(fmt.Errorf("hgs: data dir %s was created with %d machines, not %d", dataDir, cm.Machines, opts.Machines))
		}
		if opts.Replication > 0 && opts.Replication != cm.Replication {
			return fail(fmt.Errorf("hgs: data dir %s was created with replication %d, not %d", dataDir, cm.Replication, opts.Replication))
		}
		if opts.VirtualNodes > 0 && opts.VirtualNodes != cm.VirtualNodes {
			return fail(fmt.Errorf("hgs: data dir %s was created with %d virtual nodes, not %d", dataDir, cm.VirtualNodes, opts.VirtualNodes))
		}
		stored := StorageEngine(cm.Engine)
		if stored != EngineDisk && stored != EngineTiered {
			return fail(fmt.Errorf("hgs: corrupt %s: invalid engine %q", path, cm.Engine))
		}
		if opts.Engine != EngineAuto && requested != stored {
			return fail(fmt.Errorf("hgs: data dir %s was created with the %s engine, not %s", dataDir, stored, requested))
		}
		return resolvedMeta{
			nodes:       cm.Nodes,
			replication: cm.Replication,
			vnodes:      cm.VirtualNodes,
			engine:      stored,
		}, nil
	case errors.Is(err, os.ErrNotExist):
		nodes := make([]int, machines)
		for i := range nodes {
			nodes[i] = i
		}
		return resolvedMeta{
			nodes:       nodes,
			replication: replication,
			vnodes:      vnodes,
			engine:      requested,
			needsWrite:  true,
		}, nil
	default:
		return fail(fmt.Errorf("hgs: %w", err))
	}
}

// writeClusterMeta persists the topology durably: tmp file + fsync +
// rename + directory fsync, so a crash leaves either no shape file or
// a complete one — a partial cluster.json would silently re-shard the
// store on the next open. The same path commits topology changes: the
// rebalancer rewrites the node set here before dropping any
// relinquished partition copy.
func writeClusterMeta(dataDir string, nodes []int, replication, vnodes int, engine StorageEngine) error {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return fmt.Errorf("hgs: %w", err)
	}
	blob, _ := json.Marshal(clusterMeta{
		Format:       core.Format,
		Machines:     len(nodes),
		Replication:  replication,
		Engine:       string(engine),
		Nodes:        nodes,
		VirtualNodes: vnodes,
	})
	path := filepath.Join(dataDir, "cluster.json")
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("hgs: %w", err)
	}
	if _, err := f.Write(blob); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("hgs: write %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("hgs: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("hgs: %w", err)
	}
	d, err := os.Open(dataDir)
	if err != nil {
		return fmt.Errorf("hgs: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("hgs: sync %s: %w", dataDir, err)
	}
	return nil
}

// Open creates a store per the options. With DataDir unset (or set but
// empty of data) the store starts empty — call Load to index a history.
// With DataDir pointing at an existing store's directory, Open
// reattaches to the persisted index: Loaded reports true and queries
// can run immediately.
func Open(opts Options) (*Store, error) {
	machines := opts.Machines
	if machines < 1 {
		machines = 2
	}
	replication := opts.Replication
	if replication < 1 {
		replication = 1
	}
	vnodes := opts.VirtualNodes
	if vnodes < 1 {
		vnodes = ring.DefaultVirtualNodes
	}
	lat := kvstore.LatencyModel{}
	if opts.SimulateLatency {
		lat = kvstore.DefaultLatency()
	}
	if !opts.Engine.valid() {
		return nil, fmt.Errorf("hgs: unknown storage engine %q", opts.Engine)
	}
	if opts.DataDir == "" && (opts.Engine == EngineDisk || opts.Engine == EngineTiered) {
		return nil, fmt.Errorf("hgs: the %s engine requires DataDir", opts.Engine)
	}
	if opts.DataDir != "" && opts.Engine == EngineMemory {
		return nil, fmt.Errorf("hgs: the memory engine cannot persist; unset DataDir or pick a disk engine")
	}
	cfg := opts.coreConfig()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Every store carries its own metrics registry: the cluster and
	// cache counters register into it below and the TGI records per-op
	// latency histograms through cfg.Obs, so /metrics and WriteMetrics
	// see one coherent view of this store without process-global state.
	reg := obs.NewRegistry()
	cfg.Obs = reg
	var (
		factory    backend.Factory
		writeShape bool
		engine     = EngineMemory
		commit     func(nodes []int) error
	)
	nodes := make([]int, machines)
	for i := range nodes {
		nodes[i] = i
	}
	if opts.DataDir != "" {
		rm, err := resolveClusterMeta(opts.DataDir, opts, machines, replication, vnodes)
		if err != nil {
			return nil, err
		}
		nodes, replication, vnodes, engine, writeShape = rm.nodes, rm.replication, rm.vnodes, rm.engine, rm.needsWrite
		// Topology changes persist the new node set at the rebalancer's
		// commit point, before any relinquished copy is dropped.
		dataDir, eng, r, vn := opts.DataDir, engine, replication, vnodes
		commit = func(nodes []int) error {
			return writeClusterMeta(dataDir, nodes, r, vn, eng)
		}
		switch engine {
		case EngineDisk:
			factory = disklog.Factory(opts.DataDir, disklog.Options{})
		case EngineTiered:
			factory = tiered.Factory(opts.DataDir, tiered.Options{HotBytes: opts.HotBytes})
		}
	}
	hintDir := ""
	if opts.DataDir != "" {
		hintDir = filepath.Join(opts.DataDir, "hints")
	}
	cluster, err := kvstore.Open(kvstore.Config{
		Nodes:               nodes,
		Replication:         replication,
		ReadQuorum:          opts.ReadQuorum,
		WriteQuorum:         opts.WriteQuorum,
		HintDir:             hintDir,
		AntiEntropyInterval: opts.AntiEntropyInterval,
		VirtualNodes:        vnodes,
		RebalanceRate:       opts.RebalanceRate,
		Latency:             lat,
		Backend:             factory,
		OnTopologyCommit:    commit,
	})
	if err != nil {
		return nil, err
	}
	cluster.RegisterObs(reg)
	tgi, attached, err := core.Attach(cluster, cfg)
	if err != nil {
		cluster.Close()
		return nil, err
	}
	if writeShape {
		if err := writeClusterMeta(opts.DataDir, nodes, replication, vnodes, engine); err != nil {
			cluster.Close()
			return nil, err
		}
	}
	s := &Store{
		cluster: cluster,
		tgi:     tgi,
		obs:     reg,
		durable: opts.DataDir != "",
		engine:  engine,
	}
	s.loaded.Store(attached)
	return s, nil
}

// Load builds the index over a complete history. Events must be
// chronological with strictly increasing timestamps. It fails on an
// empty history and on a store that is already loaded.
func (s *Store) Load(events []Event) error {
	return s.ingest(context.Background(), events, true)
}

// Append ingests a batch of new events after the indexed history.
func (s *Store) Append(events []Event) error {
	return s.AppendCtx(context.Background(), events)
}

// AppendCtx is Append honoring a context: cancellation is checked
// before the ingest starts. A started ingest always runs to completion
// — aborting it midway would leave a torn index — so the context bounds
// admission, not the write itself. Concurrent ingests are serialized:
// of several batches racing for the same trailing range one is indexed
// and the rest fail the "not after indexed history end" ordering check.
// A batch into a store that is not loaded yet loads it.
func (s *Store) AppendCtx(ctx context.Context, events []Event) error {
	return s.ingest(ctx, events, false)
}

// ingest is the one body behind Load and AppendCtx: core.Append builds
// the index when the store is empty and extends it otherwise, then the
// cluster is flushed. load refuses a store that is already loaded.
func (s *Store) ingest(ctx context.Context, events []Event, load bool) error {
	if err := s.beginOp(); err != nil {
		return err
	}
	defer s.endOp()
	if err := ctx.Err(); err != nil {
		return err
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if load && s.loaded.Load() {
		return fmt.Errorf("hgs: store already loaded; use Append for updates")
	}
	if err := s.tgi.Append(events); err != nil {
		return err
	}
	s.loaded.Store(true)
	return s.cluster.Flush()
}

// Loaded reports whether the store holds an index — after a Load in
// this process or by reattaching to a durable DataDir.
func (s *Store) Loaded() bool { return s.loaded.Load() }

// Durable reports whether the store persists to disk (DataDir set).
func (s *Store) Durable() bool { return s.durable }

// Engine reports the storage engine the store runs on.
func (s *Store) Engine() StorageEngine { return s.engine }

// Close flushes and closes the backing storage engines. In-flight
// queries are drained first: Close marks the store closed — new
// operations fail with ErrClosed — then waits for active ones to finish
// before tearing down the cluster, so a query can never race a
// disappearing engine. Close is idempotent; the store must not be used
// afterwards.
func (s *Store) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return nil
	}
	s.closed = true
	s.closeMu.Unlock()
	s.active.Wait()
	return s.cluster.Close()
}

// Backup writes a consistent copy of a quiesced durable store into dir:
// every node engine's on-disk state plus the cluster metadata, laid out
// exactly like a DataDir, so `hgs.Open(Options{DataDir: dir})` opens
// the copy. The store must not receive writes while the backup runs
// (each node is copied under its service lock after a full flush);
// concurrent reads are fine. dir must not already hold a store.
func (s *Store) Backup(dir string) error {
	if !s.durable {
		return fmt.Errorf("hgs: backup requires a durable store (DataDir)")
	}
	if _, err := os.Stat(filepath.Join(dir, "cluster.json")); err == nil {
		return fmt.Errorf("hgs: backup target %s already holds a store", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("hgs: %w", err)
	}
	if err := s.cluster.Flush(); err != nil {
		return err
	}
	if err := s.cluster.Backup(dir); err != nil {
		return err
	}
	// The metadata is written last: a backup without cluster.json is
	// visibly incomplete rather than silently openable.
	cfg := s.cluster.Config()
	return writeClusterMeta(dir, cfg.Nodes, cfg.Replication, cfg.VirtualNodes, s.engine)
}

// Snapshot retrieves the graph as of time tt.
func (s *Store) Snapshot(tt Time) (*Graph, error) {
	return s.SnapshotWith(tt, nil)
}

// SnapshotWith retrieves a snapshot with explicit fetch options.
func (s *Store) SnapshotWith(tt Time, opts *FetchOptions) (*Graph, error) {
	if err := s.beginOp(); err != nil {
		return nil, err
	}
	defer s.endOp()
	return s.tgi.GetSnapshot(tt, opts)
}

// StreamSnapshot retrieves the snapshot at tt without ever assembling
// it: each horizontal partition's node states are handed to emit as
// soon as that partition materializes, possibly concurrently (emit must
// be safe for concurrent use and must not retain the states past its
// return). The server's NDJSON snapshot endpoint rides this so
// arbitrarily large snapshots stream in bounded memory.
func (s *Store) StreamSnapshot(tt Time, opts *FetchOptions, emit func(sid int, states []*NodeState) error) error {
	if err := s.beginOp(); err != nil {
		return err
	}
	defer s.endOp()
	return s.tgi.StreamSnapshot(tt, opts, emit)
}

// Node retrieves one node's state as of tt (nil if absent).
func (s *Store) Node(id NodeID, tt Time) (*NodeState, error) {
	return s.NodeWith(id, tt, nil)
}

// NodeWith retrieves one node's state with explicit fetch options.
func (s *Store) NodeWith(id NodeID, tt Time, opts *FetchOptions) (*NodeState, error) {
	if err := s.beginOp(); err != nil {
		return nil, err
	}
	defer s.endOp()
	return s.tgi.GetNodeAt(id, tt, opts)
}

// NodeHistory retrieves a node's evolution over [ts, te).
func (s *Store) NodeHistory(id NodeID, ts, te Time) (*NodeHistory, error) {
	return s.NodeHistoryWith(id, ts, te, nil)
}

// NodeHistoryWith retrieves a node's evolution with explicit fetch
// options.
func (s *Store) NodeHistoryWith(id NodeID, ts, te Time, opts *FetchOptions) (*NodeHistory, error) {
	if err := s.beginOp(); err != nil {
		return nil, err
	}
	defer s.endOp()
	return s.tgi.GetNodeHistory(id, ts, te, opts)
}

// ChangeTimes returns the timepoints in [ts, te) at which the node
// changed, read from version chains only (no eventlist fetches).
func (s *Store) ChangeTimes(id NodeID, ts, te Time) ([]Time, error) {
	return s.ChangeTimesWith(id, ts, te, nil)
}

// ChangeTimesWith returns a node's change times with explicit fetch
// options.
func (s *Store) ChangeTimesWith(id NodeID, ts, te Time, opts *FetchOptions) ([]Time, error) {
	if err := s.beginOp(); err != nil {
		return nil, err
	}
	defer s.endOp()
	return s.tgi.ChangeTimes(id, ts, te, opts)
}

// KHop retrieves the k-hop neighborhood subgraph of id as of tt.
func (s *Store) KHop(id NodeID, k int, tt Time) (*Graph, error) {
	return s.KHopWith(id, k, tt, nil)
}

// KHopWith retrieves a k-hop neighborhood with explicit fetch options.
func (s *Store) KHopWith(id NodeID, k int, tt Time, opts *FetchOptions) (*Graph, error) {
	if err := s.beginOp(); err != nil {
		return nil, err
	}
	defer s.endOp()
	return s.tgi.GetKHopNeighborhood(id, k, tt, opts)
}

// KHopHistory retrieves the evolution of id's k-hop neighborhood over
// [ts, te).
func (s *Store) KHopHistory(id NodeID, k int, ts, te Time) (*SubgraphHistory, error) {
	return s.KHopHistoryWith(id, k, ts, te, nil)
}

// KHopHistoryWith retrieves a neighborhood evolution with explicit
// fetch options.
func (s *Store) KHopHistoryWith(id NodeID, k int, ts, te Time, opts *FetchOptions) (*SubgraphHistory, error) {
	if err := s.beginOp(); err != nil {
		return nil, err
	}
	defer s.endOp()
	return s.tgi.GetKHopHistory(id, k, ts, te, opts)
}

// Snapshots retrieves the snapshots at several times as one query: the
// rows the points share are read once. Answers come in the order of
// times, and a repeated time gets its own graph.
func (s *Store) Snapshots(times []Time) ([]*Graph, error) {
	return s.SnapshotsWith(times, nil)
}

// SnapshotsWith retrieves multiple snapshots with explicit fetch
// options.
func (s *Store) SnapshotsWith(times []Time, opts *FetchOptions) ([]*Graph, error) {
	if err := s.beginOp(); err != nil {
		return nil, err
	}
	defer s.endOp()
	return s.tgi.GetSnapshotsAt(times, opts)
}

// TimeRange returns the [first, last] event times of the indexed history.
func (s *Store) TimeRange() (Time, Time, error) {
	if err := s.beginOp(); err != nil {
		return 0, 0, err
	}
	defer s.endOp()
	return s.tgi.TimeRange()
}

// Stats reports storage statistics.
func (s *Store) Stats() (core.Stats, error) {
	if err := s.beginOp(); err != nil {
		return core.Stats{}, err
	}
	defer s.endOp()
	return s.tgi.Stats()
}

// PlanTraces returns the most recent per-query plan traces, oldest
// first (empty unless Options.TracePlans is set). Each record reports
// one retrieval's planned key set, its cache-hit / negative-hit /
// KV-read breakdown per table, and the round-trips and simulated wait
// it was charged.
func (s *Store) PlanTraces() []TraceRecord { return s.tgi.PlanTraces() }

// Cluster exposes the backing store (metrics, fault injection).
func (s *Store) Cluster() *kvstore.Cluster { return s.cluster }

// Topology types and fault injection, re-exported from the storage
// layer so callers stay within the hgs surface.
type (
	// TopologyInfo describes the cluster placement: per-node ring
	// weight, health and hints, plus under-replicated partitions.
	TopologyInfo = kvstore.TopologyInfo
	// StorageNodeInfo is one storage node's entry in a TopologyInfo.
	StorageNodeInfo = kvstore.NodeInfo
	// Fault is a per-node fault-injection profile: visits error with
	// probability ErrRate and are slowed by ExtraLatency.
	Fault = kvstore.Fault
	// RepairStats summarizes one anti-entropy sweep: partitions found
	// divergent and converged, plus the rows and bytes streamed.
	RepairStats = kvstore.RepairStats
)

// Topology sentinels, matched with errors.Is.
var (
	// ErrUnknownStorageNode: a topology or fault operation named a
	// storage node that is not in the cluster (HTTP 404).
	ErrUnknownStorageNode = kvstore.ErrUnknownNode
	// ErrDuplicateStorageNode: AddStorageNode named an existing node
	// (HTTP 409).
	ErrDuplicateStorageNode = kvstore.ErrDuplicateNode
	// ErrRebalancing: a topology change is already streaming (HTTP 409).
	ErrRebalancing = kvstore.ErrRebalancing
	// ErrTooFewNodes: removal would leave fewer nodes than the
	// replication factor (HTTP 409).
	ErrTooFewNodes = kvstore.ErrTooFewNodes
	// ErrRepairRunning: an anti-entropy sweep is already in progress
	// (HTTP 409).
	ErrRepairRunning = kvstore.ErrRepairRunning
)

// Topology inspects the storage cluster: ring share, health, stored
// bytes and pending hints per node, plus how many partitions currently
// have a down replica. An inspection sweep over the node engines, not
// a hot path.
func (s *Store) Topology() (TopologyInfo, error) {
	if err := s.beginOp(); err != nil {
		return TopologyInfo{}, err
	}
	defer s.endOp()
	return s.cluster.Topology(), nil
}

// AddStorageNode grows the cluster by one node and starts the
// background rebalance that streams it the partitions the ring now
// assigns to it (rate-limited by Options.RebalanceRate). Queries keep
// running throughout: every partition is served by its old or new
// owner until its handoff commits. On a durable store the new topology
// is persisted before any old copy is dropped. Returns once the
// migration is underway; WaitRebalance blocks until it completes.
func (s *Store) AddStorageNode(id int) error {
	if err := s.beginOp(); err != nil {
		return err
	}
	defer s.endOp()
	return s.cluster.AddNode(id)
}

// RemoveStorageNode decommissions a storage node: the background
// rebalance streams every partition it owns to the post-removal
// owners, then closes and drops the node. Refuses to shrink below the
// replication factor.
func (s *Store) RemoveStorageNode(id int) error {
	if err := s.beginOp(); err != nil {
		return err
	}
	defer s.endOp()
	return s.cluster.RemoveNode(id)
}

// FailStorageNode marks a storage node down: reads fail over to the
// remaining replicas (Stats().StoreMetrics counts DegradedReads and
// Failovers), writes queue hinted handoffs. The node's data is kept.
func (s *Store) FailStorageNode(id int) error {
	if err := s.beginOp(); err != nil {
		return err
	}
	defer s.endOp()
	return s.cluster.FailNode(id)
}

// ReviveStorageNode brings a failed node back, replaying the writes it
// missed before it serves again.
func (s *Store) ReviveStorageNode(id int) error {
	if err := s.beginOp(); err != nil {
		return err
	}
	defer s.endOp()
	return s.cluster.ReviveNode(id)
}

// InjectFault installs (nil clears) a fault profile on a storage node:
// unlike FailStorageNode the node keeps serving, but visits error with
// the configured probability and carry the configured extra latency —
// the knob degraded-read tests and benchmarks drive.
func (s *Store) InjectFault(id int, f *Fault) error {
	if err := s.beginOp(); err != nil {
		return err
	}
	defer s.endOp()
	return s.cluster.InjectFault(id, f)
}

// RepairPartitions runs one anti-entropy sweep over the storage
// cluster: replicas exchange merkle-style per-partition digests and
// only divergent partitions are re-streamed (newest row version wins,
// rate-limited by Options.RebalanceRate). Returns what the sweep
// converged — all zero on a healthy cluster. Fails with
// ErrRepairRunning when a sweep is already in progress and
// ErrRebalancing while a topology change is streaming.
func (s *Store) RepairPartitions() (RepairStats, error) {
	if err := s.beginOp(); err != nil {
		return RepairStats{}, err
	}
	defer s.endOp()
	return s.cluster.RepairPartitions()
}

// Rebalancing reports whether a background topology migration is
// running.
func (s *Store) Rebalancing() bool { return s.cluster.Rebalancing() }

// WaitRebalance blocks until the in-flight topology migration (if any)
// completes and returns its outcome.
func (s *Store) WaitRebalance() error {
	if err := s.beginOp(); err != nil {
		return err
	}
	defer s.endOp()
	return s.cluster.WaitRebalance()
}

// Analytics opens a TAF session with the given number of compute
// workers (the paper's Spark cluster size). The workers run the
// operators' per-partition tasks: the maps over a SoN or SoTS, and
// Evolution's forward replay, one task per partition of the SoN at each
// timepoint; Evolution's quantity still runs once per point, on the
// caller's goroutine.
func (s *Store) Analytics(workers int) *Analytics {
	return &Analytics{h: taf.NewHandler(s.tgi, sparklite.NewContext(workers))}
}
