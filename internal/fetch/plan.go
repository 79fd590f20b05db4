package fetch

import (
	"hgs/internal/delta"
	"hgs/internal/graph"
	"hgs/internal/kvstore"
)

// GroupKey names one group of parts within a horizontal partition:
// for the delta tables (TableDeltas, or TableAux where DID is the leaf
// index) every micro-delta of one tree delta, under DeltaPrefix(DID);
// for the eventlist tables (TableEvents, TableAuxEvents, DID the
// eventlist index) every micro-eventlist of one boundary eventlist,
// under EventPrefix(DID). This is the caching granularity — a snapshot
// wants all of it, a micro-partition fetch wants one pid of it.
type GroupKey struct {
	Table          string
	TSID, SID, DID int
}

// PartKey names a single micro-delta or micro-eventlist (the table says
// which).
type PartKey struct {
	Table               string
	TSID, SID, DID, PID int
}

func (p PartKey) group() GroupKey { return GroupKey{p.Table, p.TSID, p.SID, p.DID} }

// isEventTable reports whether a table stores micro-eventlists rather
// than micro-deltas — the one fork of the read path, deciding key shape
// and decoder.
func isEventTable(table string) bool {
	return table == TableEvents || table == TableAuxEvents
}

// scanRef is the prefix scan that fetches every part of a group.
func (k GroupKey) scanRef() kvstore.ScanRef {
	prefix := DeltaPrefix(k.DID)
	if isEventTable(k.Table) {
		prefix = EventPrefix(k.DID)
	}
	return kvstore.ScanRef{Table: k.Table, PKey: PlacementKey(k.TSID, k.SID), Prefix: prefix}
}

// keyRef is the point read that fetches one part.
func (k PartKey) keyRef() kvstore.KeyRef {
	ckey := DeltaCKey(k.DID, k.PID)
	if isEventTable(k.Table) {
		ckey = EventCKey(k.DID, k.PID)
	}
	return kvstore.KeyRef{Table: k.Table, PKey: PlacementKey(k.TSID, k.SID), CKey: ckey}
}

// Plan is a deduplicated read set for one retrieval. Add requests in any
// order — duplicates collapse — then hand the plan to Executor.Exec and
// read results back by the same coordinates.
type Plan struct {
	groups   []GroupKey
	groupSet map[GroupKey]struct{}
	parts    []PartKey
	partSet  map[PartKey]struct{}
	gets     []kvstore.KeyRef
	getSet   map[kvstore.KeyRef]struct{}
	scans    []kvstore.ScanRef
	scanSet  map[kvstore.ScanRef]struct{}
}

// NewPlan returns an empty plan.
func NewPlan() *Plan {
	return &Plan{
		groupSet: make(map[GroupKey]struct{}),
		partSet:  make(map[PartKey]struct{}),
		getSet:   make(map[kvstore.KeyRef]struct{}),
		scanSet:  make(map[kvstore.ScanRef]struct{}),
	}
}

// Group requests every part of one group (one prefix scan, or a cache
// hit when the whole group is resident): a tree delta's micro-deltas or
// a boundary eventlist's micro-eventlists. table is one of the delta or
// eventlist tables.
func (p *Plan) Group(table string, tsid, sid, did int) {
	k := GroupKey{table, tsid, sid, did}
	if _, ok := p.groupSet[k]; ok {
		return
	}
	p.groupSet[k] = struct{}{}
	p.groups = append(p.groups, k)
}

// DeltaGroup requests every micro-delta of tree delta did.
func (p *Plan) DeltaGroup(tsid, sid, did int) { p.Group(TableDeltas, tsid, sid, did) }

// Part requests one micro-delta or micro-eventlist. Absent rows install
// negative markers. A part already covered by a requested group is still
// planned independently — the group scan and the point read deduplicate
// at the cache, not the plan (plans mixing both for the same group are
// not produced by the query sites).
func (p *Plan) Part(table string, tsid, sid, did, pid int) {
	k := PartKey{table, tsid, sid, did, pid}
	if _, ok := p.partSet[k]; ok {
		return
	}
	p.partSet[k] = struct{}{}
	p.parts = append(p.parts, k)
}

// Get requests one raw row (version chains, metadata — anything that
// is not a cached part).
func (p *Plan) Get(table, pkey, ckey string) {
	k := kvstore.KeyRef{Table: table, PKey: pkey, CKey: ckey}
	if _, ok := p.getSet[k]; ok {
		return
	}
	p.getSet[k] = struct{}{}
	p.gets = append(p.gets, k)
}

// Scan requests one raw prefix scan.
func (p *Plan) Scan(table, pkey, prefix string) {
	k := kvstore.ScanRef{Table: table, PKey: pkey, Prefix: prefix}
	if _, ok := p.scanSet[k]; ok {
		return
	}
	p.scanSet[k] = struct{}{}
	p.scans = append(p.scans, k)
}

// Size reports the deduplicated request counts (groups, parts, gets,
// scans) — the planner's unit-test surface.
func (p *Plan) Size() (groups, parts, gets, scans int) {
	return len(p.groups), len(p.parts), len(p.gets), len(p.scans)
}

// Empty reports whether the plan holds no requests.
func (p *Plan) Empty() bool {
	return len(p.groups) == 0 && len(p.parts) == 0 && len(p.gets) == 0 && len(p.scans) == 0
}

// Part is one decoded row of a group, identified by pid: a micro-delta
// (Delta) for the delta tables, a micro-eventlist (Events, never nil)
// for the eventlist tables.
type Part struct {
	PID    int
	Delta  *delta.Delta
	Events []graph.Event
}

// Result answers an executed plan. When the executor runs with a cache,
// parts returned through Group and Part are owned by the cache and
// shared across queries: callers must treat them as immutable — merge
// deltas into graphs with Merge (or Delta.ApplyTo, which clones), never
// Delta.MoveTo, and filter event slices into new ones. With caching
// disabled every delta is a private decode and Merge transfers ownership
// instead of cloning.
type Result struct {
	groups map[GroupKey][]Part
	parts  map[PartKey]Part
	gets   map[kvstore.KeyRef][]byte
	scans  map[kvstore.ScanRef][]kvstore.Row
	// shared records that parts are (or may be) cache-resident.
	shared bool
}

// Merge merges a delta returned by this result into g, preserving the
// fast path: cache-shared deltas clone their states in (ApplyTo),
// private decodes move them (MoveTo, no copying). Each delta may be
// merged at most once per result when the cache is disabled.
func (r *Result) Merge(d *delta.Delta, g *graph.Graph) {
	if r.shared {
		d.ApplyTo(g)
	} else {
		d.MoveTo(g)
	}
}

// Group returns the parts of a requested group, pid-ascending.
func (r *Result) Group(table string, tsid, sid, did int) []Part {
	return r.groups[GroupKey{table, tsid, sid, did}]
}

// Part returns a requested part; ok is false when the row does not
// exist.
func (r *Result) Part(table string, tsid, sid, did, pid int) (Part, bool) {
	p, ok := r.parts[PartKey{table, tsid, sid, did, pid}]
	return p, ok
}

// Get returns a requested raw row.
func (r *Result) Get(table, pkey, ckey string) ([]byte, bool) {
	v, ok := r.gets[kvstore.KeyRef{Table: table, PKey: pkey, CKey: ckey}]
	return v, ok
}

// Scan returns the rows of a requested prefix scan.
func (r *Result) Scan(table, pkey, prefix string) []kvstore.Row {
	return r.scans[kvstore.ScanRef{Table: table, PKey: pkey, Prefix: prefix}]
}
