package fetch

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"hgs/internal/codec"
	"hgs/internal/delta"
	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/temporal"
)

func mkDelta(id graph.NodeID) *delta.Delta {
	d := delta.New()
	ns := graph.NewNodeState(id)
	ns.Attrs = graph.Attrs{"k": fmt.Sprintf("v%d", id)}
	d.Put(ns)
	return d
}

func encDelta(t testing.TB, d *delta.Delta) []byte {
	t.Helper()
	blob, err := codec.Codec{}.EncodeDelta(d)
	if err != nil {
		t.Fatalf("EncodeDelta: %v", err)
	}
	return blob
}

func mkEvents(pid, n int) []graph.Event {
	evs := make([]graph.Event, n)
	for i := range evs {
		evs[i] = graph.Event{
			Time: temporal.Time(100*pid + i),
			Kind: graph.AddNode,
			Node: graph.NodeID(pid*1000 + i),
		}
	}
	return evs
}

// partTables are the four tables whose rows decode into parts: two of
// micro-deltas, two of micro-eventlists.
var partTables = []string{TableDeltas, TableAux, TableEvents, TableAuxEvents}

// mkPart returns a decoded part of the kind table holds, distinct per
// (pid, n): a one-node micro-delta, or an n-event micro-eventlist.
func mkPart(table string, pid, n int) Part {
	if isEventTable(table) {
		return Part{PID: pid, Events: mkEvents(pid, n)}
	}
	return mkDeltaPart(pid, mkDelta(graph.NodeID(pid*1000+n)))
}

// mkDeltaPart returns the part a stored micro-delta row of d decodes to.
func mkDeltaPart(pid int, d *delta.Delta) Part {
	blob, err := codec.Codec{}.EncodeDelta(d)
	if err != nil {
		panic(err)
	}
	row, err := codec.Codec{}.ParseDelta(blob)
	if err != nil {
		panic(err)
	}
	return deltaPart(pid, row)
}

// partDelta decodes every state of a micro-delta part into a delta (nil
// for a micro-eventlist).
func partDelta(p Part) *delta.Delta {
	if p.row == nil {
		return nil
	}
	g := graph.New()
	if err := p.ApplyTo(g, nil); err != nil {
		panic(err)
	}
	d := delta.FromGraph(g)
	for _, id := range p.row.Tombstones() {
		d.MarkDeleted(id)
	}
	return d
}

// encPart encodes a part's payload as its table stores it.
func encPart(t testing.TB, p Part) []byte {
	t.Helper()
	if d := partDelta(p); d != nil {
		return encDelta(t, d)
	}
	blob, err := codec.Codec{}.EncodeEvents(p.Events)
	if err != nil {
		t.Fatalf("EncodeEvents: %v", err)
	}
	return blob
}

// samePart reports whether two parts carry the same pid and payload.
func samePart(a, b Part) bool {
	da, db := partDelta(a), partDelta(b)
	if a.PID != b.PID || (da == nil) != (db == nil) || len(a.Events) != len(b.Events) {
		return false
	}
	if da != nil && !da.Equal(db) {
		return false
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			return false
		}
	}
	return true
}

// wantEventHits is how many eventlist hits n positive hits on table
// should count: all of them on the eventlist tables, none elsewhere.
func wantEventHits(table string, n int64) int64 {
	if isEventTable(table) {
		return n
	}
	return 0
}

func TestPlanDedup(t *testing.T) {
	p := NewPlan()
	for i := 0; i < 3; i++ {
		p.DeltaGroup(0, 1, 2)
		p.DeltaGroup(0, 1, 3)
		p.Part(TableDeltas, 0, 1, 2, 7)
		p.Group(TableEvents, 0, 1, 2)
		p.Get(TableEvents, "pk", "ck")
		p.Get(TableEvents, "pk", "ck2")
		p.Scan(TableEvents, "pk", "e00001/")
	}
	groups, parts, gets, scans := p.Size()
	if groups != 3 || parts != 1 || gets != 2 || scans != 1 {
		t.Fatalf("dedup failed: groups=%d parts=%d gets=%d scans=%d", groups, parts, gets, scans)
	}
	if p.Empty() {
		t.Fatal("plan should not be empty")
	}
	if !NewPlan().Empty() {
		t.Fatal("fresh plan should be empty")
	}
}

func TestParsePID(t *testing.T) {
	for _, tc := range []struct {
		ckey string
		pid  int
		ok   bool
	}{
		{DeltaCKey(3, 17), 17, true},
		{EventCKey(0, 999), 999, true},
		{"garbage", 0, false},
	} {
		pid, err := parsePID(tc.ckey)
		if tc.ok != (err == nil) {
			t.Fatalf("parsePID(%q) err=%v, want ok=%v", tc.ckey, err, tc.ok)
		}
		if tc.ok && pid != tc.pid {
			t.Fatalf("parsePID(%q) = %d, want %d", tc.ckey, pid, tc.pid)
		}
	}
}

// TestCacheGroupAndPartLookups pins the lookup contract of every part
// table: an incomplete entry answers only its resident pids, a complete
// one serves the whole group pid-ascending and knows absence, hits on
// micro-eventlists count as eventlist hits, and no table's entry
// answers for another table's key space.
func TestCacheGroupAndPartLookups(t *testing.T) {
	for _, table := range partTables {
		t.Run(table, func(t *testing.T) {
			c := NewCache(1 << 20)
			k := GroupKey{table, 0, 1, 2}
			pk := func(pid int) PartKey { return PartKey{table, 0, 1, 2, pid} }

			if _, ok := c.Group(k); ok {
				t.Fatal("empty cache should miss")
			}
			// An incomplete entry (point-read population) must not answer
			// group lookups, and must not claim absence for other pids.
			p5 := mkPart(table, 5, 5)
			c.AddPart(pk(5), p5, 100)
			if _, ok := c.Group(k); ok {
				t.Fatal("incomplete entry must miss group lookups")
			}
			if p, found, known := c.Part(pk(5)); !found || !known || !samePart(p, p5) {
				t.Fatalf("cached part = %+v found=%v known=%v", p, found, known)
			}
			if _, found, known := c.Part(pk(6)); found || known {
				t.Fatal("incomplete entry must not claim absence of pid 6")
			}

			// A complete entry serves the group and knows absence. Install
			// pid-descending; lookups must come back pid-ascending.
			p1, p3 := mkPart(table, 1, 3), mkPart(table, 3, 4)
			c.AddGroup(k, []Part{p3, p1}, []int64{10, 10})
			parts, ok := c.Group(k)
			if !ok || len(parts) != 2 || !samePart(parts[0], p1) || !samePart(parts[1], p3) {
				t.Fatalf("group lookup = %+v, %v; want pids [1 3]", parts, ok)
			}
			if p, found, known := c.Part(pk(3)); !found || !known || !samePart(p, p3) {
				t.Fatalf("part of complete group = %+v found=%v known=%v", p, found, known)
			}
			if _, found, known := c.Part(pk(9)); found || !known {
				t.Fatal("complete group should authoritatively report pid 9 absent")
			}
			// The same coordinates under any other table are a different
			// key space.
			for _, other := range partTables {
				if other == table {
					continue
				}
				if _, ok := c.Group(GroupKey{other, 0, 1, 2}); ok {
					t.Fatalf("%s entry answered for %s", table, other)
				}
			}

			st := c.Stats()
			if st.Hits != 3 || st.Misses == 0 || st.Entries != 1 {
				t.Fatalf("unexpected stats: %+v", st)
			}
			if want := wantEventHits(table, st.Hits); st.EventlistHits != want {
				t.Fatalf("EventlistHits = %d, want %d", st.EventlistHits, want)
			}
			if st.NegativeHits == 0 {
				t.Fatal("complete-group absence answer did not count as a negative hit")
			}
		})
	}
}

func TestCacheBoundsAndEviction(t *testing.T) {
	const budget = 4 * 1024
	c := NewCache(budget)
	// Insert many groups, each charged ~1KB: the budget holds only a few.
	for i := 0; i < 50; i++ {
		c.AddGroup(GroupKey{TableDeltas, 0, 0, i},
			[]Part{mkDeltaPart(0, mkDelta(graph.NodeID(i)))}, []int64{1024})
	}
	st := c.Stats()
	if st.Bytes > budget {
		t.Fatalf("cache over budget: %d > %d", st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions under a tight budget")
	}
	if st.Entries == 0 {
		t.Fatal("recent entries should survive eviction")
	}
	// The most recently inserted group must still be resident; the
	// oldest must be gone.
	if _, ok := c.Group(GroupKey{TableDeltas, 0, 0, 49}); !ok {
		t.Fatal("most recent group evicted")
	}
	if _, ok := c.Group(GroupKey{TableDeltas, 0, 0, 0}); ok {
		t.Fatal("oldest group survived a 4KB budget holding ~3 entries")
	}

	c.Purge()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("purge left %+v", st)
	}
}

func TestCacheLRUOrder(t *testing.T) {
	// Budget for two ~1KB entries (plus overheads).
	c := NewCache(3 * 1024)
	a := GroupKey{TableDeltas, 0, 0, 1}
	b := GroupKey{TableDeltas, 0, 0, 2}
	c.AddGroup(a, []Part{mkDeltaPart(0, mkDelta(1))}, []int64{1024})
	c.AddGroup(b, []Part{mkDeltaPart(0, mkDelta(2))}, []int64{1024})
	c.Group(a) // touch a so b is the LRU victim
	c.AddGroup(GroupKey{TableDeltas, 0, 0, 3}, []Part{mkDeltaPart(0, mkDelta(3))}, []int64{1024})
	if _, ok := c.Group(a); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Group(b); ok {
		t.Fatal("least recently used entry survived")
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	if c := NewCache(0); c != nil {
		t.Fatal("NewCache(0) should disable caching")
	}
	c.AddGroup(GroupKey{}, nil, nil)
	c.AddPart(PartKey{}, Part{}, 0)
	c.AddNegative(PartKey{})
	c.Purge()
	if _, ok := c.Group(GroupKey{}); ok {
		t.Fatal("nil cache must always miss")
	}
	if _, _, known := c.Part(PartKey{}); known {
		t.Fatal("nil cache must never claim an answer")
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

// fakeStore is an executor-facing store recording batch calls.
type fakeStore struct {
	mu    sync.Mutex
	rows  map[kvstore.KeyRef][]byte
	gets  int // batched get invocations
	scans int // batched scan invocations
}

func newFakeStore() *fakeStore { return &fakeStore{rows: make(map[kvstore.KeyRef][]byte)} }

func (f *fakeStore) put(table, pkey, ckey string, v []byte) {
	f.rows[kvstore.KeyRef{Table: table, PKey: pkey, CKey: ckey}] = v
}

func (f *fakeStore) MultiGetStatsCtx(_ context.Context, refs []kvstore.KeyRef) ([]kvstore.GetResult, kvstore.CallStats) {
	f.mu.Lock()
	f.gets++
	f.mu.Unlock()
	out := make([]kvstore.GetResult, len(refs))
	for i, r := range refs {
		if v, ok := f.rows[r]; ok {
			out[i] = kvstore.GetResult{Value: v, Found: true}
		}
	}
	return out, kvstore.CallStats{RoundTrips: 1}
}

func (f *fakeStore) MultiScanStatsCtx(_ context.Context, refs []kvstore.ScanRef) ([][]kvstore.Row, kvstore.CallStats) {
	f.mu.Lock()
	f.scans++
	f.mu.Unlock()
	out := make([][]kvstore.Row, len(refs))
	for i, ref := range refs {
		for k, v := range f.rows {
			if k.Table == ref.Table && k.PKey == ref.PKey && len(k.CKey) >= len(ref.Prefix) && k.CKey[:len(ref.Prefix)] == ref.Prefix {
				out[i] = append(out[i], kvstore.Row{CKey: k.CKey, Value: v})
			}
		}
	}
	return out, kvstore.CallStats{RoundTrips: 1}
}

func TestExecutorServesPlanAndWarmsCache(t *testing.T) {
	st := newFakeStore()
	d1, d2 := mkDelta(1), mkDelta(2)
	st.put(TableDeltas, PlacementKey(0, 0), DeltaCKey(0, 0), encDelta(t, d1))
	st.put(TableDeltas, PlacementKey(0, 0), DeltaCKey(0, 1), encDelta(t, d2))
	st.put(TableDeltas, PlacementKey(0, 0), DeltaCKey(1, 0), encDelta(t, d1))
	st.put(TableEvents, PlacementKey(0, 0), EventCKey(0, 0), []byte{0})
	ex := NewExecutor(st, codec.Codec{}, NewCache(1<<20))

	plan := NewPlan()
	plan.DeltaGroup(0, 0, 0)
	plan.Part(TableDeltas, 0, 0, 1, 0)
	plan.Get(TableEvents, PlacementKey(0, 0), EventCKey(0, 0))
	plan.Scan(TableEvents, PlacementKey(0, 0), EventPrefix(0))

	res, err := ex.Exec(plan, 2)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if parts := res.Group(TableDeltas, 0, 0, 0); len(parts) != 2 || parts[0].PID != 0 || parts[1].PID != 1 {
		t.Fatalf("group result = %+v", parts)
	}
	if p, ok := res.Part(TableDeltas, 0, 0, 1, 0); !ok || !partDelta(p).Equal(d1) {
		t.Fatalf("part result = %+v", p)
	}
	if _, ok := res.Part(TableDeltas, 0, 0, 1, 9); ok {
		t.Fatal("unplanned part should be absent")
	}
	if _, ok := res.Get(TableEvents, PlacementKey(0, 0), EventCKey(0, 0)); !ok {
		t.Fatal("raw get missing")
	}
	if rows := res.Scan(TableEvents, PlacementKey(0, 0), EventPrefix(0)); len(rows) != 1 {
		t.Fatalf("raw scan rows = %d, want 1", len(rows))
	}
	if st.gets != 1 || st.scans != 1 {
		t.Fatalf("cold exec used %d batched get and %d batched scan calls; want one batched round of each", st.gets, st.scans)
	}

	// Warm rerun of the delta-only plan: no store traffic at all.
	warm := NewPlan()
	warm.DeltaGroup(0, 0, 0)
	warm.Part(TableDeltas, 0, 0, 1, 0)
	res2, err := ex.Exec(warm, 2)
	if err != nil {
		t.Fatalf("warm Exec: %v", err)
	}
	if st.gets != 1 || st.scans != 1 {
		t.Fatalf("warm exec hit the store (gets=%d scans=%d)", st.gets, st.scans)
	}
	if parts := res2.Group(TableDeltas, 0, 0, 0); len(parts) != 2 {
		t.Fatalf("warm group result = %+v", parts)
	}
	if p, ok := res2.Part(TableDeltas, 0, 0, 1, 0); !ok || !partDelta(p).Equal(d1) {
		t.Fatalf("warm part result = %+v", p)
	}
	if hits := ex.Cache().Stats().Hits; hits < 2 {
		t.Fatalf("cache hits = %d, want >= 2", hits)
	}
}

func TestExecutorWithoutCache(t *testing.T) {
	st := newFakeStore()
	st.put(TableDeltas, PlacementKey(0, 0), DeltaCKey(0, 0), encDelta(t, mkDelta(1)))
	ex := NewExecutor(st, codec.Codec{}, nil)
	plan := NewPlan()
	plan.DeltaGroup(0, 0, 0)
	for i := 0; i < 2; i++ {
		res, err := ex.Exec(plan, 1)
		if err != nil {
			t.Fatalf("Exec: %v", err)
		}
		if parts := res.Group(TableDeltas, 0, 0, 0); len(parts) != 1 {
			t.Fatalf("group result = %+v", parts)
		}
	}
	if st.scans != 2 {
		t.Fatalf("cache-disabled executor should scan every time, got %d", st.scans)
	}
}

// TestExecutorKnownAbsentPart pins the executor's cache integration on
// every part table: a planned group decodes once and comes back
// pid-ascending, the warm rerun is served entirely from the cache (no
// store traffic, eventlist hits counted on the eventlist tables), and a
// point read of a pid the scanned group provably lacks never reaches
// the store.
func TestExecutorKnownAbsentPart(t *testing.T) {
	for _, table := range partTables {
		t.Run(table, func(t *testing.T) {
			st := newFakeStore()
			p0, p1 := mkPart(table, 0, 4), mkPart(table, 1, 6)
			for _, p := range []Part{p1, p0} {
				st.rows[PartKey{table, 0, 0, 2, p.PID}.keyRef()] = encPart(t, p)
			}
			ex := NewExecutor(st, codec.Codec{}, NewCache(1<<20))
			// Scan the group twice: the cache learns the complete pid set
			// and serves the rerun.
			for pass := 0; pass < 2; pass++ {
				plan := NewPlan()
				plan.Group(table, 0, 0, 2)
				res, err := ex.Exec(plan, 2)
				if err != nil {
					t.Fatalf("Exec: %v", err)
				}
				parts := res.Group(table, 0, 0, 2)
				if len(parts) != 2 || !samePart(parts[0], p0) || !samePart(parts[1], p1) {
					t.Fatalf("pass %d: group = %+v", pass, parts)
				}
			}
			if st.scans != 1 {
				t.Fatalf("group scanned %d times; the cache should serve the rerun", st.scans)
			}
			if cs := ex.Cache().Stats(); cs.EventlistHits != wantEventHits(table, cs.Hits) || cs.Hits == 0 {
				t.Fatalf("warm rerun stats = %+v", cs)
			}
			// A part the group provably lacks must not trigger a store read.
			p2 := NewPlan()
			p2.Part(table, 0, 0, 2, 42)
			res, err := ex.Exec(p2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := res.Part(table, 0, 0, 2, 42); ok {
				t.Fatal("absent part returned a value")
			}
			if st.gets != 0 {
				t.Fatalf("known-absent part read the store (%d gets)", st.gets)
			}
		})
	}
}

func TestExecutorCachesAuxParts(t *testing.T) {
	st := newFakeStore()
	d := mkDelta(4)
	st.put(TableAux, PlacementKey(0, 1), DeltaCKey(2, 3), encDelta(t, d))
	ex := NewExecutor(st, codec.Codec{}, NewCache(1<<20))
	for i := 0; i < 2; i++ {
		plan := NewPlan()
		plan.Part(TableAux, 0, 1, 2, 3)
		res, err := ex.Exec(plan, 1)
		if err != nil {
			t.Fatalf("Exec: %v", err)
		}
		if got, ok := res.Part(TableAux, 0, 1, 2, 3); !ok || !partDelta(got).Equal(d) {
			t.Fatalf("aux part result = %+v", got)
		}
		if _, ok := res.Part(TableDeltas, 0, 1, 2, 3); ok {
			t.Fatal("aux row leaked into the deltas key space")
		}
	}
	if st.gets != 1 {
		t.Fatalf("aux part fetched %d times; the cache should serve the rerun", st.gets)
	}
}

// TestCacheRejectsOversizedEntries pins size-aware admission: a group
// larger than the whole budget must be refused at the door — before
// the fix it evicted every resident entry and then lingered (or was
// itself evicted) without ever being servable, wiping the hot set for
// nothing.
func TestCacheRejectsOversizedEntries(t *testing.T) {
	const budget = 4 * 1024
	c := NewCache(budget)
	resident := GroupKey{TableDeltas, 0, 0, 1}
	c.AddGroup(resident, []Part{mkDeltaPart(0, mkDelta(1))}, []int64{1024})

	giant := GroupKey{TableDeltas, 0, 0, 99}
	c.AddGroup(giant, []Part{mkDeltaPart(0, mkDelta(99))}, []int64{64 * 1024})
	if _, ok := c.Group(giant); ok {
		t.Fatal("oversized group admitted")
	}
	if _, ok := c.Group(resident); !ok {
		t.Fatal("oversized group wiped the resident hot set")
	}
	st := c.Stats()
	if st.Oversized != 1 {
		t.Fatalf("Oversized = %d, want 1", st.Oversized)
	}
	if st.Evictions != 0 {
		t.Fatalf("oversized admission evicted %d entries", st.Evictions)
	}

	// AddPart: a part that alone exceeds the budget is refused too.
	c.AddPart(PartKey{TableDeltas, 0, 0, 98, 0}, mkDeltaPart(0, mkDelta(98)), 64*1024)
	if _, _, known := c.Part(PartKey{TableDeltas, 0, 0, 98, 0}); known {
		t.Fatal("oversized part admitted")
	}
	// And a part that would push an existing group past the budget is
	// refused while the group's resident parts keep serving.
	grow := PartKey{TableDeltas, 0, 0, 97, 0}
	c.AddPart(grow, mkDeltaPart(0, mkDelta(97)), 512)
	c.AddPart(PartKey{TableDeltas, 0, 0, 97, 1}, mkDeltaPart(0, mkDelta(97)), 64*1024)
	if _, found, known := c.Part(grow); !known || !found {
		t.Fatal("rejecting an oversized sibling dropped the resident part")
	}
	if st := c.Stats(); st.Oversized != 3 {
		t.Fatalf("Oversized = %d, want 3", st.Oversized)
	}
	if st := c.Stats(); st.Bytes > budget {
		t.Fatalf("cache over budget after rejections: %d", st.Bytes)
	}
}

// TestCacheNegativeMarkers pins the point-read lifecycle on every part
// table: negative markers record absence without claiming siblings or
// completeness, a later install of the marked row drops the stale
// marker and serves it, Purge drops markers, and an empty complete
// group is a group-wide absence answer.
func TestCacheNegativeMarkers(t *testing.T) {
	for _, table := range partTables {
		t.Run(table, func(t *testing.T) {
			c := NewCache(1 << 20)
			k := PartKey{table, 0, 1, 2, 5}
			if _, _, known := c.Part(k); known {
				t.Fatal("empty cache must not claim absence")
			}
			c.AddNegative(k)
			if _, found, known := c.Part(k); !known || found {
				t.Fatal("negative marker should answer absence authoritatively")
			}
			st := c.Stats()
			if st.NegativeHits != 1 {
				t.Fatalf("NegativeHits = %d, want 1", st.NegativeHits)
			}
			// A marker must not block siblings or claim completeness.
			if _, _, known := c.Part(PartKey{table, 0, 1, 2, 6}); known {
				t.Fatal("marker for pid 5 must not claim absence of pid 6")
			}
			if _, ok := c.Group(GroupKey{table, 0, 1, 2}); ok {
				t.Fatal("an entry holding only markers must not answer group lookups")
			}
			// The row appearing later (Append wrote it) overrides the stale
			// marker and serves its value.
			p5 := mkPart(table, 5, 2)
			c.AddPart(k, p5, 100)
			if p, found, known := c.Part(k); !known || !found || !samePart(p, p5) {
				t.Fatalf("after marker clear: %+v found=%v known=%v", p, found, known)
			}
			// Purge drops markers like positive entries.
			k9 := PartKey{table, 0, 1, 2, 9}
			c.AddNegative(k9)
			c.Purge()
			if _, _, known := c.Part(k9); known {
				t.Fatal("purge must drop negative markers")
			}
			// An empty complete group is a group-wide absence answer.
			empty := GroupKey{table, 9, 9, 9}
			c.AddGroup(empty, nil, nil)
			if parts, ok := c.Group(empty); !ok || len(parts) != 0 {
				t.Fatalf("empty complete group: parts=%v ok=%v", parts, ok)
			}
		})
	}
}

// TestCacheScanResistance pins the segmented admission policy: a
// one-shot scan far larger than the budget must not evict the
// proven-hot protected set (a flat LRU loses every hot entry to it).
func TestCacheScanResistance(t *testing.T) {
	const budget = 64 * 1024
	workload := func(c *Cache) (kept int) {
		hot := make([]GroupKey, 8)
		for i := range hot {
			hot[i] = GroupKey{TableDeltas, 0, 0, i}
			c.AddGroup(hot[i], []Part{mkDeltaPart(0, mkDelta(graph.NodeID(i)))}, []int64{2048})
		}
		for _, k := range hot { // a second access proves reuse → protected
			if _, ok := c.Group(k); !ok {
				t.Fatal("hot group missing before the scan")
			}
		}
		for i := 0; i < 100; i++ { // one-shot scan, ~4x the whole budget
			c.AddGroup(GroupKey{TableDeltas, 9, 9, i},
				[]Part{mkDeltaPart(0, mkDelta(graph.NodeID(1000+i)))}, []int64{2048})
		}
		for _, k := range hot {
			if _, ok := c.Group(k); ok {
				kept++
			}
		}
		return kept
	}
	if kept := workload(NewCache(budget)); kept != 8 {
		t.Fatalf("segmented admission kept %d of 8 hot groups across the scan, want all 8", kept)
	}
}

// TestCacheSegmentBounds pins the SLRU accounting: the protected
// segment stays within its share (demoting, not evicting, on overflow)
// and the whole cache stays within budget.
func TestCacheSegmentBounds(t *testing.T) {
	const budget = 8 * 1024
	c := NewCache(budget)
	keys := make([]GroupKey, 3)
	for i := range keys {
		keys[i] = GroupKey{TableDeltas, 0, 0, i}
		c.AddGroup(keys[i], []Part{mkDeltaPart(0, mkDelta(graph.NodeID(i)))}, []int64{2048})
	}
	for _, k := range keys { // promote all three: overflows the 80% share
		c.Group(k)
	}
	st := c.Stats()
	if st.Bytes > budget {
		t.Fatalf("cache over budget: %d > %d", st.Bytes, budget)
	}
	if max := budget * 8 / 10; st.ProtectedBytes > int64(max) {
		t.Fatalf("protected segment over its share: %d > %d", st.ProtectedBytes, max)
	}
	if st.Evictions != 0 {
		t.Fatalf("segment overflow evicted %d entries; it must demote instead", st.Evictions)
	}
	if st.Admissions != 3 {
		t.Fatalf("Admissions = %d, want 3", st.Admissions)
	}
}

// TestExecutorNegativeCachesAbsentParts: a point read that found no row
// installs a negative marker, so re-probing the same absent row issues
// no store call — and the plan trace records the breakdown.
func TestExecutorNegativeCachesAbsentParts(t *testing.T) {
	st := newFakeStore()
	ex := NewExecutor(st, codec.Codec{}, NewCache(1<<20))
	plan := NewPlan()
	plan.Part(TableDeltas, 0, 0, 0, 7)

	tr := &Trace{}
	if _, err := ex.ExecCtx(context.Background(), plan, 1, tr); err != nil {
		t.Fatal(err)
	}
	if st.gets != 1 {
		t.Fatalf("cold probe issued %d MultiGets, want 1", st.gets)
	}
	rec := tr.Record()
	if rec.Parts != 1 || rec.KVReads != 1 || rec.NegativeHits != 0 || rec.RoundTrips != 1 {
		t.Fatalf("cold trace = %+v", rec)
	}
	if tt := rec.Tables[TableDeltas]; tt.KVReads != 1 {
		t.Fatalf("cold per-table trace = %+v", tt)
	}

	tr2 := &Trace{}
	res, err := ex.ExecCtx(context.Background(), plan, 1, tr2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Part(TableDeltas, 0, 0, 0, 7); ok {
		t.Fatal("absent part returned a delta")
	}
	if st.gets != 1 {
		t.Fatalf("re-probe of a known-absent row hit the store (%d gets)", st.gets)
	}
	rec2 := tr2.Record()
	if rec2.NegativeHits != 1 || rec2.KVReads != 0 {
		t.Fatalf("warm trace = %+v", rec2)
	}
	if tt := rec2.Tables[TableDeltas]; tt.NegativeHits != 1 || tt.KVReads != 0 {
		t.Fatalf("warm per-table trace = %+v", tt)
	}
	if ex.Cache().Stats().NegativeHits == 0 {
		t.Fatal("cache counters recorded no negative hit")
	}
}

// TestCacheProtectedGrowthRebalances pins the demotion paths the
// promotion loop does not cover: growing a protected entry in place
// (AddPart) and completing a protected group (AddGroup inheritance)
// must rebalance the protected segment back to its share by demoting
// LRU entries — not silently let it swallow the whole budget and
// starve probation.
func TestCacheProtectedGrowthRebalances(t *testing.T) {
	const budget = 16 * 1024
	protMax := int64(budget * 8 / 10)

	// In-place growth: three promoted entries, one grows large.
	c := NewCache(budget)
	keys := make([]GroupKey, 3)
	for i := range keys {
		keys[i] = GroupKey{TableDeltas, 0, 0, i}
		c.AddGroup(keys[i], []Part{mkDeltaPart(0, mkDelta(graph.NodeID(i)))}, []int64{2048})
		c.Group(keys[i]) // promote
	}
	for pid := 1; pid <= 6; pid++ {
		c.AddPart(PartKey{TableDeltas, 0, 0, 1, pid}, mkDeltaPart(0, mkDelta(1)), 1024)
	}
	st := c.Stats()
	if st.ProtectedBytes > protMax {
		t.Fatalf("in-place growth left the protected segment over its share: %d > %d", st.ProtectedBytes, protMax)
	}
	if st.Evictions != 0 {
		t.Fatalf("rebalancing evicted %d entries; it must demote", st.Evictions)
	}

	// Completion inheritance: a promoted group completed by a large scan
	// charges the new size into the protected segment and must demote.
	c2 := NewCache(budget)
	g1 := GroupKey{TableDeltas, 0, 0, 1}
	g2 := GroupKey{TableDeltas, 0, 0, 2}
	c2.AddGroup(g1, []Part{mkDeltaPart(0, mkDelta(1))}, []int64{512})
	c2.AddGroup(g2, []Part{mkDeltaPart(0, mkDelta(2))}, []int64{512})
	c2.Group(g1)
	c2.Group(g2) // both protected
	c2.AddGroup(g1, []Part{mkDeltaPart(0, mkDelta(1))}, []int64{10 * 1024})
	st2 := c2.Stats()
	if st2.ProtectedBytes > protMax {
		t.Fatalf("inherited protection left the segment over its share: %d > %d", st2.ProtectedBytes, protMax)
	}
	if _, ok := c2.Group(g2); !ok {
		t.Fatal("demoted entry was lost instead of moved to probation")
	}
}

// TestCacheAdaptiveProtectedShare pins the adaptation loop: a workload
// whose hits land in probation (fresh entries proving reuse) shrinks
// the protected share below its initial value; a workload hammering
// one resident hot entry grows it toward the ceiling.
func TestCacheAdaptiveProtectedShare(t *testing.T) {
	// Shrink: every hit is a fresh probation entry's first (promoting)
	// hit, so probation wins each adaptation window outright.
	c := NewCache(1 << 20)
	for i := 0; i < 3*adaptWindow; i++ {
		k := PartKey{TableDeltas, 0, 0, i, 0}
		c.AddPart(k, mkDeltaPart(0, mkDelta(graph.NodeID(i))), 16)
		if _, _, known := c.Part(k); !known {
			t.Fatalf("fresh part %d missed", i)
		}
	}
	if got := c.Stats().ProtectedShare; got >= initialProtectedShare {
		t.Fatalf("probation-dominated workload: share = %.2f, want < %.2f", got, initialProtectedShare)
	}

	// Grow: after the first promoting hit, every hit lands in the
	// protected segment, so protection wins each window.
	c = NewCache(1 << 20)
	k := PartKey{TableDeltas, 0, 0, 0, 0}
	c.AddPart(k, mkDeltaPart(0, mkDelta(1)), 16)
	for i := 0; i < 3*adaptWindow; i++ {
		if _, _, known := c.Part(k); !known {
			t.Fatal("hot part missed")
		}
	}
	st := c.Stats()
	if st.ProtectedShare <= initialProtectedShare {
		t.Fatalf("protected-dominated workload: share = %.2f, want > %.2f", st.ProtectedShare, initialProtectedShare)
	}
	if st.ProtectedShare > maxProtectedShare+1e-9 || st.ProtectedShare < minProtectedShare-1e-9 {
		t.Fatalf("share %.2f escaped [%.2f, %.2f]", st.ProtectedShare, minProtectedShare, maxProtectedShare)
	}
}

// TestPartDecodesStatesOnDemand checks the lazy micro-delta part: a read
// decodes no state, a wanted-id merge decodes only the wanted states,
// every reader after the first gets the same frozen state, concurrent
// readers agree, and a corrupt body fails only the merges that need it.
func TestPartDecodesStatesOnDemand(t *testing.T) {
	d := delta.New()
	for _, id := range []graph.NodeID{3, 8, 20} {
		ns := graph.NewNodeState(id)
		if id != 20 {
			ns.Attrs = graph.Attrs{"k": "v"}
			ns.Edges = map[graph.EdgeKey]*graph.EdgeState{{Other: 20, Out: true}: {}}
		}
		d.Put(ns)
	}
	d.MarkDeleted(5)
	good := encDelta(t, d)
	// Node 20's body is the last two bytes (no attributes, no edges):
	// make its edge count an unterminated varint.
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] = 0x80
	st := newFakeStore()
	st.rows[PartKey{TableDeltas, 0, 0, 0, 0}.keyRef()] = good
	st.rows[PartKey{TableDeltas, 0, 0, 0, 1}.keyRef()] = bad
	plan := NewPlan()
	plan.Part(TableDeltas, 0, 0, 0, 0)
	plan.Part(TableDeltas, 0, 0, 0, 1)
	res, err := NewExecutor(st, codec.Codec{}, NewCache(1<<20)).Exec(plan, 1)
	if err != nil {
		t.Fatalf("a corrupt state body failed the read itself: %v", err)
	}
	p, _ := res.Part(TableDeltas, 0, 0, 0, 0)
	decoded := func() (n int) {
		for i := range p.row.states {
			if p.row.states[i].Load() != nil {
				n++
			}
		}
		return n
	}
	if p.NumStates() != 3 || !slices.Equal(p.IDs(), []graph.NodeID{3, 8, 20}) || decoded() != 0 {
		t.Fatalf("fresh part: %d states %v, %d decoded", p.NumStates(), p.IDs(), decoded())
	}
	one := graph.New()
	one.PutNode(graph.NewNodeState(5)) // tombstoned by the part
	if err := p.ApplyTo(one, []graph.NodeID{5, 8}); err != nil {
		t.Fatal(err)
	}
	if one.NumNodes() != 1 || !one.Node(8).Equal(d.Nodes[8]) || decoded() != 1 {
		t.Fatalf("wanted-id merge: %v, %d decoded", one, decoded())
	}
	var wg sync.WaitGroup
	graphs := make([]*graph.Graph, 4)
	for i := range graphs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			graphs[i] = graph.New()
			if err := p.ApplyTo(graphs[i], nil); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for _, g := range graphs {
		if g.NumNodes() != 3 || g.Node(8) != one.Node(8) || g.Node(3) != graphs[0].Node(3) {
			t.Fatal("readers of one part got different states")
		}
		g.Apply(graph.Event{Kind: graph.SetNodeAttr, Node: 8, Key: "k", Value: "written"})
	}
	if v, _ := one.Node(8).Attr("k"); v != "v" || decoded() != 3 {
		t.Fatalf("a write through one graph reached the shared state (%q), %d decoded", v, decoded())
	}

	q, _ := res.Part(TableDeltas, 0, 0, 0, 1)
	if err := q.ApplyTo(graph.New(), []graph.NodeID{3, 8}); err != nil {
		t.Fatalf("merge of intact states: %v", err)
	}
	for _, want := range [][]graph.NodeID{{20}, nil} {
		if err := q.ApplyTo(graph.New(), want); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("merge of %v with a corrupt state: %v", want, err)
		}
	}
}
