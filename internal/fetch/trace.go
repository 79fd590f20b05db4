package fetch

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"hgs/internal/kvstore"
)

// TableTrace is the per-table slice of a plan trace: how many requests
// against one store table the cache answered (positively or with an
// authoritative absence) and how many logical reads went to the store.
type TableTrace struct {
	CacheHits    int64
	NegativeHits int64
	KVReads      int64
}

// TraceRecord is the immutable snapshot of one retrieval's plan trace:
// what was planned, how much of it the decoded-part cache absorbed,
// and what the store round actually cost. Execs counts the plan
// executions the retrieval issued (a snapshot runs one; a k-hop
// expansion runs one per hop). KVReads/RoundTrips/BytesRead/SimWait are
// attributed per call by the store (kvstore.CallStats) and therefore
// match the cluster's Metrics deltas exactly for retrievals whose
// metadata is already cached. ModelTime is the retrieval's modelled
// storage time.
type TraceRecord struct {
	// Op names the retrieval that owns the trace ("snapshot",
	// "node-history", ...).
	Op string
	// Execs is the number of executed plans aggregated into the record.
	Execs int
	// Groups, Parts, Gets and Scans are the planned request counts,
	// after plan-level deduplication.
	Groups, Parts, Gets, Scans int
	// CacheHits and NegativeHits are the planned group and part
	// requests answered by the cache (positively / with known absence);
	// KVReads is the logical reads issued to the store for the rest.
	CacheHits    int64
	NegativeHits int64
	KVReads      int64
	// RoundTrips counts physical storage-node visits, BytesRead the
	// bytes moved, SimWait the modelled service time charged across
	// all nodes.
	RoundTrips int64
	BytesRead  int64
	SimWait    time.Duration
	// ModelTime adds up the modelled duration of the retrieval's store
	// rounds (kvstore.RoundTime): per round, the busiest node's share of
	// SimWait. Rounds add up as if run one after another, which they
	// are.
	ModelTime time.Duration
	// Tables breaks hits and reads down by store table.
	Tables map[string]TableTrace
}

// String renders the record as one line plus an indented per-table
// breakdown, the format hgs-inspect -trace prints.
func (r TraceRecord) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s execs=%d planned[groups=%d parts=%d gets=%d scans=%d] cache[hits=%d neg=%d] kv[reads=%d round-trips=%d bytes=%d wait=%s model=%s]",
		r.Op, r.Execs, r.Groups, r.Parts, r.Gets, r.Scans,
		r.CacheHits, r.NegativeHits, r.KVReads, r.RoundTrips, r.BytesRead,
		r.SimWait.Round(time.Microsecond), r.ModelTime.Round(time.Microsecond))
	tables := make([]string, 0, len(r.Tables))
	for t := range r.Tables {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		tt := r.Tables[t]
		fmt.Fprintf(&b, "\n  %-12s hits=%d neg=%d reads=%d", t, tt.CacheHits, tt.NegativeHits, tt.KVReads)
	}
	return b.String()
}

// Trace accumulates one retrieval's plan/cache/read breakdown across
// its plan executions. The zero value is ready to use. Every retrieval
// fills one: an index handle creates its own and keeps its record in a
// ring of recent traces (core.TGI.PlanTraces), unless the caller passes
// one through core.FetchOptions.Trace and reads it back with Record once
// the call returns. A Trace is safe for the concurrent plan executions
// of one retrieval; a nil *Trace is valid and records nothing.
type Trace struct {
	mu  sync.Mutex
	rec TraceRecord
}

// SetOp names the retrieval owning the trace; the first non-empty name
// wins, so a caller trace reused across retrievals keeps its first name.
func (t *Trace) SetOp(op string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rec.Op == "" {
		t.rec.Op = op
	}
}

// Record returns a snapshot of the accumulated trace (with its own copy
// of the per-table map).
func (t *Trace) Record() TraceRecord {
	if t == nil {
		return TraceRecord{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.rec
	out.Tables = make(map[string]TableTrace, len(t.rec.Tables))
	for k, v := range t.rec.Tables {
		out.Tables[k] = v
	}
	return out
}

// SimWait returns the modelled service time the trace has accumulated.
func (t *Trace) SimWait() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rec.SimWait
}

// tableLocked returns the mutable per-table slot.
func (t *Trace) tableLocked(table string) TableTrace {
	if t.rec.Tables == nil {
		t.rec.Tables = make(map[string]TableTrace)
	}
	return t.rec.Tables[table]
}

// addPlanned records one executed plan's deduplicated request counts.
func (t *Trace) addPlanned(groups, parts, gets, scans int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rec.Execs++
	t.rec.Groups += groups
	t.rec.Parts += parts
	t.rec.Gets += gets
	t.rec.Scans += scans
}

// addHit records a cache answer for one planned group or part request.
func (t *Trace) addHit(table string, negative bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tt := t.tableLocked(table)
	if negative {
		t.rec.NegativeHits++
		tt.NegativeHits++
	} else {
		t.rec.CacheHits++
		tt.CacheHits++
	}
	t.rec.Tables[table] = tt
}

// addReads attributes n logical store reads to a table.
func (t *Trace) addReads(table string, n int) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tt := t.tableLocked(table)
	tt.KVReads += int64(n)
	t.rec.Tables[table] = tt
	t.rec.KVReads += int64(n)
}

// addRound folds one store round — the concurrent calls of one plan
// execution — into the trace: each call's exact attribution, and the
// round's modelled time. The logical read count is attributed per table
// by addReads; the calls add only the physical round-trips, bytes and
// modelled wait.
func (t *Trace) addRound(calls ...kvstore.CallStats) {
	if t == nil {
		return
	}
	round := kvstore.RoundTime(calls...)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, cs := range calls {
		t.rec.RoundTrips += cs.RoundTrips
		t.rec.BytesRead += cs.BytesRead
		t.rec.SimWait += cs.SimWait
	}
	t.rec.ModelTime += round
}
