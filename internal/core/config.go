// Package core implements the Temporal Graph Index (TGI), the paper's
// primary contribution (§4): a partitioned, hierarchically
// temporally-compressed index over the entire history of a graph, stored
// in a distributed key-value store, supporting snapshot retrieval, node
// histories, and neighborhood (version) retrieval with parallel fetch.
//
// Layout (paper §4.4): history is cut into timespans; the graph is
// horizontally partitioned by a random hash of node id into ns partitions
// (sid); within each (timespan, sid) a DeltaGraph-style tree of derived
// partitioned snapshots is built over leaf checkpoints spaced every
// EventlistSize events; every stored delta and eventlist is split into
// micro-deltas of roughly PartitionSize nodes (pid) by a per-timespan
// partition map (random or locality); version chains record, per node,
// which eventlists contain its changes.
package core

import (
	"context"
	"fmt"

	"hgs/internal/fetch"
	"hgs/internal/obs"
	"hgs/internal/partition"
)

// Table names in the backing store. The key schema is owned by the
// unified fetch layer (internal/fetch); these aliases keep the names
// usable throughout core and its tests.
const (
	TableDeltas    = fetch.TableDeltas
	TableEvents    = fetch.TableEvents
	TableVersions  = fetch.TableVersions
	TableTimespans = fetch.TableTimespans
	TableGraph     = fetch.TableGraph
	TableMicroPart = fetch.TableMicroPart
	TableAux       = fetch.TableAux
	TableAuxEvents = fetch.TableAuxEvents
)

// Config holds the TGI construction parameters (paper §4.4: timespan
// length ts, horizontal partitions ns, eventlist size l, micro-delta
// partition size psize, plus the partitioning strategy of §4.5), which
// the graph metadata persists, and the runtime knobs of the reading
// process, tagged json:"-": not persisted, and kept across an Attach.
// Materialization runs on GOMAXPROCS workers.
type Config struct {
	// TimespanEvents is the number of events per timespan (uniform
	// time-span length in number of events — the paper's practical choice).
	TimespanEvents int
	// EventlistSize is l: events per eventlist; leaf checkpoints are
	// spaced this many events apart.
	EventlistSize int
	// Arity is the fan-in k of the hierarchical delta tree.
	Arity int
	// HorizontalPartitions is ns: the number of hash partitions that
	// spread each delta across the cluster.
	HorizontalPartitions int
	// PartitionSize is psize: target node count per micro-delta.
	PartitionSize int
	// Partitioning selects random or locality micro-partitioning; a
	// locality span collapses its graph with union-max and unit node
	// weights (partition.Collapse).
	Partitioning partition.Kind
	// Replicate1Hop stores auxiliary frontier micro-deltas to accelerate
	// 1-hop neighborhood retrieval.
	Replicate1Hop bool
	// Compress gzip-compresses stored blobs.
	Compress bool
	// FetchClients is c: the default number of parallel query processors
	// used by retrieval operations.
	FetchClients int
	// CacheBytes bounds the query manager's decoded-delta cache. Zero
	// selects DefaultCacheBytes; a negative value disables caching.
	// Unlike the construction parameters above this is a runtime knob of
	// the reading process, not a property of the stored index: it is not
	// persisted, and a handle attached to an existing index keeps the
	// value it was opened with.
	CacheBytes int64 `json:"-"`
	// TracePlans keeps a plan trace for every retrieval this handle
	// runs — the planned key set and its cache-hit / negative-hit /
	// KV-read breakdown — in a bounded ring surfaced by TGI.PlanTraces
	// and Stats.Traces. A runtime knob of the reading process like
	// CacheBytes: not persisted, kept across an Attach adoption.
	// Per-call tracing via FetchOptions.Trace works regardless.
	TracePlans bool `json:"-"`
	// Obs, when non-nil, is the metrics registry this handle records
	// into: the decoded-delta cache counters register on construction,
	// and every retrieval and ingest operation observes its wall time
	// (and, for retrievals, the simulated storage wait attributed by
	// the plan trace) into per-op latency histograms. A runtime knob
	// of the reading process like CacheBytes: not persisted, kept across an
	// Attach adoption. hgs.Open wires each Store's registry through
	// here.
	Obs *obs.Registry `json:"-"`
}

// DefaultCacheBytes is the decoded-delta cache budget used when
// Config.CacheBytes is zero (64 MiB).
const DefaultCacheBytes = 64 << 20

// cacheBudget maps CacheBytes to the cache constructor's convention
// (<= 0 disables): negative disables, zero selects DefaultCacheBytes.
func (c Config) cacheBudget() int64 {
	switch {
	case c.CacheBytes < 0:
		return 0
	case c.CacheBytes == 0:
		return DefaultCacheBytes
	default:
		return c.CacheBytes
	}
}

// DefaultConfig returns the defaults used throughout the evaluation
// unless a figure varies a parameter (ps=500, random partitioning).
func DefaultConfig() Config {
	return Config{
		TimespanEvents:       200_000,
		EventlistSize:        25_000,
		Arity:                2,
		HorizontalPartitions: 4,
		PartitionSize:        500,
		Partitioning:         partition.Random,
		Replicate1Hop:        false,
		Compress:             false,
		FetchClients:         4,
	}
}

// normalize clamps invalid values to sane minimums.
func (c *Config) normalize() {
	if c.TimespanEvents < 1 {
		c.TimespanEvents = 200_000
	}
	if c.EventlistSize < 1 {
		c.EventlistSize = 25_000
	}
	if c.EventlistSize > c.TimespanEvents {
		c.EventlistSize = c.TimespanEvents
	}
	if c.Arity < 2 {
		c.Arity = 2
	}
	if c.HorizontalPartitions < 1 {
		c.HorizontalPartitions = 1
	}
	if c.PartitionSize < 1 {
		c.PartitionSize = 500
	}
	if c.FetchClients < 1 {
		c.FetchClients = 1
	}
}

// Validate reports configuration errors that normalize cannot repair.
func (c Config) Validate() error {
	if c.TimespanEvents < c.EventlistSize {
		return fmt.Errorf("core: TimespanEvents (%d) < EventlistSize (%d)", c.TimespanEvents, c.EventlistSize)
	}
	return nil
}

// DeltaGraphConfig returns the configuration that degenerates TGI into
// the DeltaGraph index of the authors' prior work (ICDE 2013): monolithic
// deltas (one huge micro-partition, one horizontal partition) and no
// version chains are consulted. Used as a baseline (paper §4.2, Table 1).
func DeltaGraphConfig() Config {
	c := DefaultConfig()
	c.HorizontalPartitions = 1
	c.PartitionSize = 1 << 30
	return c
}

// FetchOptions tune a single retrieval call. It is the one per-call
// options struct of the query API: every retrieval method takes it (nil
// selects all defaults), and new per-call knobs land here rather than
// as new method variants.
type FetchOptions struct {
	// Context carries the call's deadline and cancellation signal. When
	// it can fire, batched store rounds are issued through the cluster's
	// cancellable surface, decode/materialize workers stop at partition
	// boundaries, and the retrieval returns ctx.Err() promptly without
	// leaking goroutines or installing partial results in the cache.
	// Nil means context.Background() (never cancelled).
	Context context.Context
	// Clients overrides Config.FetchClients when > 0 (the experiments'
	// parallel fetch factor c).
	Clients int
	// Trace, when non-nil, receives this retrieval's plan trace: the
	// planned request counts, the cache-hit/negative-hit breakdown per
	// table, and the exact KV reads, round-trips, bytes and simulated
	// wait the call charged. Read it back with Trace.Record once the
	// call returns.
	Trace *fetch.Trace
}

// ctx resolves the call context: the caller's when set, else Background.
func (o *FetchOptions) ctx() context.Context {
	if o != nil && o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (c Config) clients(opts *FetchOptions) int {
	if opts != nil && opts.Clients > 0 {
		return opts.Clients
	}
	if c.FetchClients > 0 {
		return c.FetchClients
	}
	return 1
}
