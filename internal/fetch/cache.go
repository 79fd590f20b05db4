package fetch

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
)

// Byte-accounting overheads charged per cached entry, per decoded part,
// and per negative (absence) marker on top of the encoded blob size,
// approximating the decoded in-memory footprint (maps, state headers)
// the blob length alone undercounts.
const (
	entryOverhead = 256
	partOverhead  = 64
	negOverhead   = 16
)

// The protected segment of the segmented LRU holds entries that proved
// reuse (a hit after admission); they cannot be evicted by a stream of
// one-shot insertions, which compete only for the remaining probation
// share. The share is adaptive: every adaptWindow observed hits the
// cache compares where the hits landed and steps the share toward the
// segment earning them — a stable hot set grows protection, heavy
// promotion traffic (new entries still proving reuse) grows probation —
// bounded to [minProtectedShare, maxProtectedShare].
const (
	initialProtectedShare = 0.8
	minProtectedShare     = 0.5
	maxProtectedShare     = 0.9
	adaptWindow           = 512
	adaptStep             = 0.05
)

// Cache is a bytes-bounded cache of decoded parts — micro-deltas and
// micro-eventlists alike — keyed by (table, tsid, sid, did) group. Hot
// root and interior deltas of the tree and the boundary eventlists —
// shared by every snapshot and micro-partition retrieval of a timespan —
// are decoded once and then served to all queries and TAF workers.
//
// An entry holds the decoded parts of one group by pid. A full prefix
// scan installs a complete entry (so group lookups and
// known-absent answers are served without touching the store); a point
// read installs or extends an incomplete one, and a point read that
// found nothing installs a negative marker so the next probe of the
// same absent row skips the store (see AddNegative).
//
// Admission and eviction are a segmented LRU over entries: new entries
// enter a probation segment, a hit promotes to a protected segment
// bounded to protectedShare of the budget, and eviction always drains
// probation first. A one-shot burst of insertions (one huge snapshot
// scan) therefore competes only for the probation share and cannot
// evict the resident hot set; an entry bigger than the whole budget is
// rejected at the door (CacheStats.Oversized, one case of the general
// admission policy counted by CacheStats.AdmissionRejects).
//
// Cached parts are shared read-only: readers merge deltas with
// Delta.ApplyTo (which clones states) and must never call MoveTo, and
// filter event slices into new ones. A nil *Cache is valid and caches
// nothing.
type Cache struct {
	mu        sync.Mutex
	max       int64
	share     float64    // protected-segment share of the budget (adaptive)
	protMax   int64      // protected-segment byte bound
	used      int64      // total bytes across both segments
	protUsed  int64      // bytes in the protected segment
	probation *list.List // front = most recently used
	protected *list.List
	entries   map[GroupKey]*list.Element

	hits, misses, negativeHits              int64
	eventHits                               int64 // subset of hits served with micro-eventlists
	evictions, admissions, admissionRejects int64
	oversized                               int64
	winProb, winProt                        int64 // hits per segment in the current adaptation window
}

// cacheEntry is one group: the decoded parts of one tree delta or one
// boundary eventlist (the key's table says which), by pid.
type cacheEntry struct {
	key   GroupKey
	parts map[int]Part
	// absent marks pids known not to exist (negative markers); complete
	// entries know absence implicitly and carry no markers.
	absent map[int]struct{}
	// sorted is the pid-ascending part list, materialized once when the
	// entry completes so group hits — the hottest path — return it
	// without re-sorting.
	sorted    []Part
	complete  bool
	total     int64
	protected bool // which segment the entry lives in
}

// NewCache returns a segmented-LRU cache bounded to maxBytes with
// negative caching; maxBytes <= 0 returns nil (caching disabled).
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{
		max:       maxBytes,
		share:     initialProtectedShare,
		protMax:   int64(float64(maxBytes) * initialProtectedShare),
		probation: list.New(),
		protected: list.New(),
		entries:   make(map[GroupKey]*list.Element),
	}
}

// refreshLocked moves an entry to the MRU position of its current
// segment without promoting it (used by installs; reuse is proven by
// lookups, not by writes).
func (c *Cache) refreshLocked(el *list.Element) {
	if el.Value.(*cacheEntry).protected {
		c.protected.MoveToFront(el)
	} else {
		c.probation.MoveToFront(el)
	}
}

// touchLocked registers a hit on an entry's element: move to the front
// of its segment and promote probation entries into the protected
// segment (demoting the protected LRU back
// to probation when the segment overflows its share).
func (c *Cache) touchLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	if e.protected {
		c.winProt++
		c.adaptLocked()
		c.protected.MoveToFront(el)
		return
	}
	c.winProb++
	c.adaptLocked()
	// Promote: the entry proved reuse.
	c.probation.Remove(el)
	e.protected = true
	c.entries[e.key] = c.protected.PushFront(e)
	c.protUsed += e.total
	c.demoteLocked()
}

// adaptLocked steps the protected share once per adaptWindow observed
// hits, toward whichever segment earned a clear majority of them: hits
// landing in probation mean new entries are still proving reuse and
// need room to do so (shrink protection); hits landing in protected
// mean the hot set is stable and deserves more of the budget (grow it).
// A near-even split leaves the share alone.
func (c *Cache) adaptLocked() {
	if c.winProb+c.winProt < adaptWindow {
		return
	}
	switch {
	case c.winProb > 2*c.winProt:
		c.share -= adaptStep
	case c.winProt > 2*c.winProb:
		c.share += adaptStep
	}
	if c.share < minProtectedShare {
		c.share = minProtectedShare
	}
	if c.share > maxProtectedShare {
		c.share = maxProtectedShare
	}
	c.protMax = int64(float64(c.max) * c.share)
	c.winProb, c.winProt = 0, 0
	c.demoteLocked()
}

// demoteLocked rebalances the protected segment back to its share by
// moving its LRU entries to probation (demotion, never eviction). It
// must run after every growth of protUsed — promotion, protected
// insertion, in-place growth of a protected entry — or the protected
// segment could swallow the whole budget and starve probation, leaving
// no room for new entries to prove reuse. A single protected entry is
// never demoted by its own growth.
func (c *Cache) demoteLocked() {
	for c.protUsed > c.protMax && c.protected.Len() > 1 {
		lru := c.protected.Back()
		le := lru.Value.(*cacheEntry)
		c.protected.Remove(lru)
		le.protected = false
		c.protUsed -= le.total
		c.entries[le.key] = c.probation.PushFront(le)
	}
}

// Group returns the complete part set of a group, pid-ascending, or
// ok=false when the group is absent or only partially resident. An
// empty complete group is an authoritative absence answer and counts as
// a negative hit.
func (c *Cache) Group(k GroupKey) ([]Part, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok || !el.Value.(*cacheEntry).complete {
		c.misses++
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if len(e.sorted) == 0 {
		c.negativeHits++
	} else {
		c.hitLocked(e.sorted[0])
	}
	c.touchLocked(el)
	// The slice is shared read-only, like the parts it holds.
	return e.sorted, true
}

// Part returns one part. found reports whether the row exists, known
// whether the answer is authoritative: a resident part hits positively;
// a complete entry or a negative marker knows absence (a negative hit);
// an incomplete entry without a marker does not (known == false → read
// the store).
func (c *Cache) Part(k PartKey) (p Part, found, known bool) {
	if c == nil {
		return Part{}, false, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k.group()]
	if !ok {
		c.misses++
		return Part{}, false, false
	}
	e := el.Value.(*cacheEntry)
	if p, ok := e.parts[k.PID]; ok {
		c.hitLocked(p)
		c.touchLocked(el)
		return p, true, true
	}
	if _, neg := e.absent[k.PID]; neg || e.complete { // the row provably does not exist
		c.negativeHits++
		c.touchLocked(el)
		return Part{}, false, true
	}
	c.misses++
	return Part{}, false, false
}

// hitLocked counts a positive answer, and an eventlist hit when it was
// served with decoded micro-eventlists.
func (c *Cache) hitLocked(p Part) {
	c.hits++
	if p.Events != nil {
		c.eventHits++
	}
}

// AddGroup installs the complete decoded part set of a group. sizes[i]
// is the encoded size of parts[i] (the byte-budget charge). An empty
// parts slice installs a complete absence marker for the whole group at
// fixed cost. A group bigger than the whole budget is rejected at
// admission — one giant snapshot scan must not wipe every hot entry
// only to be evicted itself on the next add (size-aware admission;
// counted in CacheStats.Oversized and AdmissionRejects).
func (c *Cache) AddGroup(k GroupKey, parts []Part, sizes []int64) {
	if c == nil {
		return
	}
	e := &cacheEntry{key: k, parts: make(map[int]Part, len(parts)), complete: true, total: entryOverhead}
	for i, p := range parts {
		e.parts[p.PID] = p
		e.total += sizes[i] + partOverhead
	}
	e.sorted = append([]Part(nil), parts...)
	sort.Slice(e.sorted, func(i, j int) bool { return e.sorted[i].PID < e.sorted[j].PID })
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.total > c.max {
		c.oversized++
		c.admissionRejects++
		return
	}
	if el, ok := c.entries[k]; ok {
		old := el.Value.(*cacheEntry)
		c.removeLocked(el)
		// A completed entry inherits the protection its incomplete
		// predecessor earned, so completing a hot group does not expose
		// it to the next scan.
		e.protected = old.protected
	}
	c.admissions++
	c.insertLocked(e)
	c.evictLocked()
}

// AddPart installs one decoded part as pid k.PID of its group without
// marking the group complete. A part that would push its group
// past the whole budget is rejected like an oversized AddGroup (the
// group stays incomplete).
func (c *Cache) AddPart(k PartKey, p Part, size int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := size + partOverhead
	el, ok := c.openLocked(k.group(), b)
	if !ok {
		return
	}
	e := el.Value.(*cacheEntry)
	if _, exists := e.parts[k.PID]; exists {
		return
	}
	if _, neg := e.absent[k.PID]; neg {
		// The row exists after all; drop the stale absence marker.
		delete(e.absent, k.PID)
		c.addBytesLocked(e, -negOverhead)
	}
	if e.total+b > c.max {
		c.oversized++
		c.admissionRejects++
		return
	}
	p.PID = k.PID
	e.parts[k.PID] = p
	c.addBytesLocked(e, b)
	c.refreshLocked(c.entries[k.group()])
	c.evictLocked()
}

// AddNegative records that one row does not exist (a point read
// returned nothing), so the next probe of the same absent row is
// answered from the cache instead of paying a store round. Markers are
// tiny fixed-cost residents of their group entry; like positive entries
// they are dropped wholesale by Purge when Append rebuilds the trailing
// timespan.
func (c *Cache) AddNegative(k PartKey) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.openLocked(k.group(), negOverhead)
	if !ok {
		return
	}
	e := el.Value.(*cacheEntry)
	if e.complete {
		return // completeness already answers absence
	}
	if _, exists := e.parts[k.PID]; exists {
		return
	}
	if _, exists := e.absent[k.PID]; exists {
		return
	}
	if e.total+negOverhead > c.max {
		c.admissionRejects++
		return
	}
	if e.absent == nil {
		e.absent = make(map[int]struct{})
	}
	e.absent[k.PID] = struct{}{}
	c.addBytesLocked(e, negOverhead)
	c.evictLocked()
}

// openLocked returns the entry of group k, admitting a new incomplete
// one when absent unless it could not hold even b bytes (an oversized
// rejection, ok=false).
func (c *Cache) openLocked(k GroupKey, b int64) (el *list.Element, ok bool) {
	if el, ok := c.entries[k]; ok {
		return el, true
	}
	if entryOverhead+b > c.max {
		c.oversized++
		c.admissionRejects++
		return nil, false
	}
	c.admissions++
	return c.insertLocked(&cacheEntry{key: k, parts: make(map[int]Part, 1), total: entryOverhead}), true
}

// insertLocked places a (new) entry into its segment at MRU position
// and registers it, charging its bytes.
func (c *Cache) insertLocked(e *cacheEntry) *list.Element {
	var el *list.Element
	if e.protected {
		el = c.protected.PushFront(e)
		c.protUsed += e.total
	} else {
		el = c.probation.PushFront(e)
	}
	c.entries[e.key] = el
	c.used += e.total
	if e.protected {
		c.demoteLocked()
	}
	return el
}

// removeLocked unregisters an entry and refunds its bytes.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	if e.protected {
		c.protected.Remove(el)
		c.protUsed -= e.total
	} else {
		c.probation.Remove(el)
	}
	delete(c.entries, e.key)
	c.used -= e.total
}

// addBytesLocked grows (or shrinks) an entry in place, keeping the
// segment accounting consistent.
func (c *Cache) addBytesLocked(e *cacheEntry, b int64) {
	e.total += b
	c.used += b
	if e.protected {
		c.protUsed += b
		if b > 0 {
			c.demoteLocked()
		}
	}
}

// evictLocked drops entries until within budget: probation (one-shot
// candidates) first, the protected segment only when probation is
// empty.
func (c *Cache) evictLocked() {
	for c.used > c.max {
		el := c.probation.Back()
		if el == nil {
			el = c.protected.Back()
		}
		if el == nil {
			return
		}
		c.removeLocked(el)
		c.evictions++
	}
}

// Purge drops every entry — positive and negative — and is called when
// the index mutates: Append rebuilds the trailing timespan, so cached
// parts and absence markers for it would be stale.
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.probation.Init()
	c.protected.Init()
	c.entries = make(map[GroupKey]*list.Element)
	c.used = 0
	c.protUsed = 0
}

// CacheStats is a snapshot of cache counters.
//
// Hits count positive answers (a resident part or a non-empty group);
// NegativeHits count authoritative absence answers (an empty complete
// group, a complete group lacking the pid, or a negative marker) — each
// one a store read that was not issued. Admissions counts entries
// accepted into the cache; AdmissionRejects counts entries or parts the
// admission policy refused, of which Oversized (bigger than the whole
// budget) is the size-aware case. ProtectedBytes is the gauge of bytes
// currently in the protected segment — the scan-resistant hot set.
type CacheStats struct {
	Hits         int64
	Misses       int64
	NegativeHits int64
	// EventlistHits is the subset of Hits answered from cached
	// micro-eventlists (boundary replay rows served without a KV scan).
	EventlistHits    int64
	Evictions        int64
	Admissions       int64
	AdmissionRejects int64
	Oversized        int64
	Entries          int
	Bytes            int64
	ProtectedBytes   int64
	MaxBytes         int64
	// ProtectedShare is the current adaptive protected-segment share of
	// the byte budget.
	ProtectedShare float64
}

func (s CacheStats) String() string {
	return fmt.Sprintf("cache hits=%d (events=%d) neghits=%d misses=%d evictions=%d admits=%d rejects=%d oversized=%d entries=%d bytes=%d/%d protected=%d share=%.2f",
		s.Hits, s.EventlistHits, s.NegativeHits, s.Misses, s.Evictions, s.Admissions, s.AdmissionRejects, s.Oversized, s.Entries, s.Bytes, s.MaxBytes, s.ProtectedBytes, s.ProtectedShare)
}

// Stats returns a snapshot of the cache counters (zero for a nil cache).
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:             c.hits,
		Misses:           c.misses,
		NegativeHits:     c.negativeHits,
		EventlistHits:    c.eventHits,
		Evictions:        c.evictions,
		Admissions:       c.admissions,
		AdmissionRejects: c.admissionRejects,
		Oversized:        c.oversized,
		Entries:          len(c.entries),
		Bytes:            c.used,
		ProtectedBytes:   c.protUsed,
		MaxBytes:         c.max,
		ProtectedShare:   c.share,
	}
}
