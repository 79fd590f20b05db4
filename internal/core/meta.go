package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"hgs/internal/fetch"
	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/partition"
	"hgs/internal/temporal"
)

// Format numbers the layout of everything the index stores (graph-meta,
// span metas, delta, eventlist and version rows) and of cluster.json. A
// change to stored bytes bumps it; a store of another number is refused
// with ErrFormat, not read.
const Format = 1

// GraphMeta is the global index metadata (the paper's Graph table:
// start, end, events, tscount, gtype).
type GraphMeta struct {
	Format        int // always Format; decodeGraphMeta refuses others
	Name          string
	Start         temporal.Time // time of the first event
	End           temporal.Time // time of the last event
	Events        int           // total events indexed
	TimespanCount int
	Config        Config
}

// TimespanMeta is the per-timespan metadata (the paper's Timespans table:
// start, end, checkpoints, arity) plus the tree shape needed to plan
// retrieval without touching delta rows, and what an Append needs to
// extend the span in place: its raw event count and its per-sid node
// counts.
type TimespanMeta struct {
	TSID  int
	Start temporal.Time // time of the first event in the span
	End   temporal.Time // time of the last event in the span
	// LeafTimes[i] is the checkpoint time of leaf i: leaf 0 is the state
	// just before the span's first event; leaf i>0 is the state after
	// eventlist i-1.
	LeafTimes []temporal.Time
	// EventlistCount is the number of eventlists (LeafTimes has
	// EventlistCount+1 entries).
	EventlistCount int
	// EventCount is the number of raw events (before a RemoveNode's
	// expansion) indexed into this span; eventlist el holds raw events
	// [el·EventlistSize, (el+1)·EventlistSize) of the span, so the count
	// says how far the last eventlist is filled.
	EventCount int
	// LeafPaths[i] lists the delta ids (dids) from the tree root to leaf
	// i; summing the corresponding deltas in order reconstructs the leaf.
	// A did names the leaves the delta covers (treeDID).
	LeafPaths [][]int
	// NPids[sid] is the number of micro-partitions in horizontal
	// partition sid during this span: max(1, ceil(Nodes[sid]/PartitionSize)).
	NPids []int
	// Nodes[sid] counts sid's nodes over the span: those at its start
	// plus every id its events touch.
	Nodes []int
	// Partitioning records the strategy used ("random" or "locality").
	Partitioning string
	// Arity is the tree fan-in used for this span.
	Arity int
}

// leafFor returns the leaf index whose checkpoint is the latest at or
// before t, clamped to the span's leaves.
func (tm *TimespanMeta) leafFor(t temporal.Time) int {
	// LeafTimes is ascending; find the last index with LeafTimes[i] <= t.
	i := sort.Search(len(tm.LeafTimes), func(i int) bool { return tm.LeafTimes[i] > t })
	if i == 0 {
		return 0
	}
	return i - 1
}

// eventlistOverlaps reports whether eventlist el, which covers
// (LeafTimes[el], LeafTimes[el+1]], can hold a time in (ts, te).
func (tm *TimespanMeta) eventlistOverlaps(el int, ts, te temporal.Time) bool {
	return tm.LeafTimes[el+1] > ts && tm.LeafTimes[el] < te
}

// Key helpers — the composite key schema lives in the fetch layer
// (internal/fetch); these aliases keep build and query code terse.

func placementKey(tsid, sid int) string { return fetch.PlacementKey(tsid, sid) }

func deltaCKey(did, pid int) string { return fetch.DeltaCKey(did, pid) }

func eventCKey(el, pid int) string { return fetch.EventCKey(el, pid) }

func nodeCKey(id graph.NodeID) string { return fetch.NodeCKey(id) }

// sidOf is the paper's fh: a random (hash) function of node id that fixes
// the horizontal partition of a node for the whole history.
func (t *TGI) sidOf(id graph.NodeID) int {
	return sidOf(id, t.cfg.HorizontalPartitions)
}

// sidOf is TGI.sidOf over ns horizontal partitions.
func sidOf(id graph.NodeID, ns int) int {
	return partition.HashPID(id^0x5bd1e995, ns)
}

// metaStore caches graph and timespan metadata in the query manager.
type metaStore struct {
	mu     sync.RWMutex
	graph  *GraphMeta
	spans  map[int]*TimespanMeta
	pidMap map[string]map[graph.NodeID]int // locality pid maps per (tsid,sid)
}

func newMetaStore() *metaStore {
	return &metaStore{spans: make(map[int]*TimespanMeta), pidMap: make(map[string]map[graph.NodeID]int)}
}

func (m *metaStore) invalidate() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.graph = nil
	m.spans = make(map[int]*TimespanMeta)
	m.pidMap = make(map[string]map[graph.NodeID]int)
}

// loadGraphMeta returns the cached global metadata, reading it from the
// store on first use.
func (t *TGI) loadGraphMeta() (*GraphMeta, error) {
	t.meta.mu.RLock()
	gm := t.meta.graph
	t.meta.mu.RUnlock()
	if gm != nil {
		return gm, nil
	}
	blob, ok := t.store.Get(TableGraph, "graph", "info")
	if !ok {
		return nil, fmt.Errorf("core: index has no graph metadata (empty index?): %w", ErrNotLoaded)
	}
	gm, err := decodeGraphMeta(blob)
	if err != nil {
		return nil, err
	}
	t.meta.mu.Lock()
	t.meta.graph = gm
	t.meta.mu.Unlock()
	return gm, nil
}

// decodeGraphMeta decodes a stored graph-meta row, refusing one of
// another Format.
func decodeGraphMeta(blob []byte) (*GraphMeta, error) {
	gm := &GraphMeta{}
	if err := json.Unmarshal(blob, gm); err != nil {
		return nil, fmt.Errorf("core: decode graph metadata: %w", err)
	}
	if gm.Format != Format {
		return nil, fmt.Errorf("core: index stored in format %d, this build reads format %d: %w", gm.Format, Format, ErrFormat)
	}
	return gm, nil
}

func (t *TGI) storeGraphMeta(gm *GraphMeta) error {
	blob, err := json.Marshal(gm)
	if err != nil {
		return fmt.Errorf("core: encode graph metadata: %w", err)
	}
	t.store.Put(TableGraph, "graph", "info", blob)
	t.meta.mu.Lock()
	t.meta.graph = gm
	t.meta.mu.Unlock()
	return nil
}

func (t *TGI) loadTimespanMeta(tsid int) (*TimespanMeta, error) {
	t.meta.mu.RLock()
	tm := t.meta.spans[tsid]
	t.meta.mu.RUnlock()
	if tm != nil {
		return tm, nil
	}
	blob, ok := t.store.Get(TableTimespans, fmt.Sprintf("t%05d", tsid), "meta")
	if !ok {
		return nil, fmt.Errorf("core: missing metadata for timespan %d", tsid)
	}
	tm = &TimespanMeta{}
	if err := json.Unmarshal(blob, tm); err != nil {
		return nil, fmt.Errorf("core: decode timespan %d metadata: %w", tsid, err)
	}
	t.meta.mu.Lock()
	t.meta.spans[tsid] = tm
	t.meta.mu.Unlock()
	return tm, nil
}

func (t *TGI) storeTimespanMeta(tm *TimespanMeta) error {
	blob, err := json.Marshal(tm)
	if err != nil {
		return fmt.Errorf("core: encode timespan metadata: %w", err)
	}
	t.store.Put(TableTimespans, fmt.Sprintf("t%05d", tm.TSID), "meta", blob)
	t.meta.mu.Lock()
	t.meta.spans[tm.TSID] = tm
	t.meta.mu.Unlock()
	return nil
}

// timespanFor locates the timespan covering t: the last span whose start
// is <= t. Times before the first span map to span 0 (whose leaf 0 is the
// empty graph); times after the last map to the last span.
func (t *TGI) timespanFor(tt temporal.Time) (*TimespanMeta, error) {
	gm, err := t.loadGraphMeta()
	if err != nil {
		return nil, err
	}
	if gm.TimespanCount == 0 {
		return nil, fmt.Errorf("core: index is empty: %w", ErrNotLoaded)
	}
	// Spans are contiguous in event order; binary search over starts via
	// cached metas (span count is small; linear from the end is fine and
	// avoids loading all metas for the common "recent time" case).
	for tsid := gm.TimespanCount - 1; tsid >= 0; tsid-- {
		tm, err := t.loadTimespanMeta(tsid)
		if err != nil {
			return nil, err
		}
		if tm.Start <= tt || tsid == 0 {
			return tm, nil
		}
	}
	return t.loadTimespanMeta(0)
}

// Version chain encoding: per (node, timespan) a blob of
// (eventlist index, change count, change times...) groups.

type vcEntry struct {
	el    int
	times []temporal.Time
}

func encodeVC(entries []vcEntry) []byte {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	put := func(v int64) {
		n := binary.PutVarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	put(int64(len(entries)))
	for _, e := range entries {
		put(int64(e.el))
		put(int64(len(e.times)))
		var prev temporal.Time
		for _, tt := range e.times {
			put(int64(tt - prev))
			prev = tt
		}
	}
	return buf
}

func decodeVC(blob []byte) ([]vcEntry, error) {
	pos := 0
	get := func() (int64, error) {
		v, n := binary.Varint(blob[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("core: corrupt version chain")
		}
		pos += n
		return v, nil
	}
	n, err := get()
	if err != nil {
		return nil, err
	}
	out := make([]vcEntry, 0, n)
	for i := int64(0); i < n; i++ {
		el, err := get()
		if err != nil {
			return nil, err
		}
		cnt, err := get()
		if err != nil {
			return nil, err
		}
		e := vcEntry{el: int(el), times: make([]temporal.Time, 0, cnt)}
		var prev temporal.Time
		for j := int64(0); j < cnt; j++ {
			d, err := get()
			if err != nil {
				return nil, err
			}
			prev += temporal.Time(d)
			e.times = append(e.times, prev)
		}
		out = append(out, e)
	}
	return out, nil
}

// pidOf resolves the micro-partition of a node within a timespan and sid.
// Random partitioning is a stateless hash; locality partitioning consults
// the Micropartitions table. The whole (tsid, sid) map is bulk-loaded on
// first use with one contiguous scan and cached in the query manager —
// per-node point reads would multiply every neighborhood fetch by the
// member count (§4.5: "maintaining and looking up that map as frequently
// as the changes in the graph is highly inefficient").
func (t *TGI) pidOf(tm *TimespanMeta, sid int, id graph.NodeID) (int, error) {
	o, err := t.ownerOf(tm, sid)
	if err != nil {
		return 0, err
	}
	return o.pid(id), nil
}

// owner is the node → micro-partition map of horizontal partition sid
// within one timespan, resolved once (ownerOf) so that callers resolving
// many nodes, such as the replay testing each edge endpoint, take the
// metadata lock once.
type owner struct {
	sid, sids, npids int
	assign           map[graph.NodeID]int // locality partitioning only
}

// ownerOf resolves the owner of (tm, sid).
func (t *TGI) ownerOf(tm *TimespanMeta, sid int) (owner, error) {
	o := owner{sid: sid, sids: t.cfg.HorizontalPartitions, npids: 1}
	if sid < len(tm.NPids) {
		o.npids = tm.NPids[sid]
	}
	if o.npids <= 1 || tm.Partitioning != partition.Locality.String() {
		return o, nil
	}
	key := placementKey(tm.TSID, sid)
	t.meta.mu.RLock()
	cached, ok := t.meta.pidMap[key]
	t.meta.mu.RUnlock()
	if !ok {
		var err error
		if cached, err = t.loadPidMap(key); err != nil {
			return owner{}, err
		}
	}
	o.assign = cached
	return o, nil
}

// pid returns the micro-partition of node id, a node of sid. A node
// unknown to a locality map (created after the span) falls back to the
// hash, which keeps lookups total.
func (o *owner) pid(id graph.NodeID) int {
	if o.npids <= 1 {
		return 0
	}
	if pid, ok := o.assign[id]; ok {
		return pid
	}
	return partition.MixPID(id, o.npids)
}

// owns reports whether micro-partition pid of sid owns node id.
func (o *owner) owns(id graph.NodeID, pid int) bool {
	return sidOf(id, o.sids) == o.sid && o.pid(id) == pid
}

// loadPidMap scans one (tsid, sid) partition of the Micropartitions
// table and caches the node→pid map.
func (t *TGI) loadPidMap(key string) (map[graph.NodeID]int, error) {
	t.meta.mu.Lock()
	defer t.meta.mu.Unlock()
	if cached, ok := t.meta.pidMap[key]; ok { // raced with another loader
		return cached, nil
	}
	rows := t.store.ScanPartition(TableMicroPart, key)
	m := make(map[graph.NodeID]int, len(rows))
	for _, row := range rows {
		if len(row.CKey) < 2 || row.CKey[0] != 'n' {
			return nil, fmt.Errorf("core: malformed micropartition key %q", row.CKey)
		}
		var id uint64
		if _, err := fmt.Sscanf(row.CKey[1:], "%d", &id); err != nil {
			return nil, fmt.Errorf("core: malformed micropartition key %q: %w", row.CKey, err)
		}
		v, n := binary.Varint(row.Value)
		if n <= 0 {
			return nil, fmt.Errorf("core: corrupt micropartition row %q", row.CKey)
		}
		m[graph.NodeID(id)] = int(v)
	}
	t.meta.pidMap[key] = m
	return m, nil
}

// Stats summarizes the stored index (sizes per table, spans, deltas)
// and the query layer's runtime counters: KV operations and round-trips
// (StoreMetrics) plus decoded-delta cache hits, misses, negative hits
// and occupancy (Cache). The recent plan traces are TGI.PlanTraces.
type Stats struct {
	Timespans    int
	Events       int
	StoredBytes  int64
	LogicalBytes int64
	StoreMetrics kvstore.Metrics
	Cache        fetch.CacheStats
}

// Stats returns storage statistics for the index.
func (t *TGI) Stats() (Stats, error) {
	gm, err := t.loadGraphMeta()
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Timespans:    gm.TimespanCount,
		Events:       gm.Events,
		StoredBytes:  t.store.StoredBytes(),
		LogicalBytes: t.store.LogicalBytes(),
		StoreMetrics: t.store.Metrics(),
		Cache:        t.fx.Cache().Stats(),
	}, nil
}
