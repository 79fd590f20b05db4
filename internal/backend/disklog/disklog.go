// Package disklog is a durable storage engine: an append-only record
// log (internal/reclog: checksummed records in numbered segment files),
// with an in-memory index (table → partition → sorted
// clustering keys → value location) rebuilt on open by replaying the
// log. Writes append a record and go to the OS immediately; fsync is
// batched — automatic every Options.SyncBytes of appended data and
// unconditional on Flush/Close (WAL group-commit semantics). A torn
// final record, the signature of a crash mid-write, is detected by the
// checksum and truncated away on open. Overwritten and deleted rows
// leave dead bytes behind; a triggered compaction rewrites the live
// rows into fresh segments and deletes the old files once the dead
// volume passes a threshold.
//
// The engine follows the same interface as the in-memory memtable, so a
// kvstore cluster can run each node on disk and a store can be closed
// and reopened by a new process without rebuilding the index.
package disklog

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"hgs/internal/backend"
	"hgs/internal/reclog"
)

// Options tune the engine. Zero values take the defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 64 MiB).
	SegmentBytes int64
	// SyncBytes fsyncs the active segment after this many appended
	// bytes (default 4 MiB). Flush and Close always fsync.
	SyncBytes int64
	// CompactMinDead is the dead-byte floor below which triggered
	// compaction never runs (default DefaultCompactMinDead). Compaction
	// triggers after a write once dead bytes exceed both this floor and
	// the live bytes.
	CompactMinDead int64
	// DisableAutoCompact turns triggered compaction off; Compact can
	// still be called explicitly.
	DisableAutoCompact bool
}

func (o *Options) normalize() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SyncBytes <= 0 {
		o.SyncBytes = 4 << 20
	}
	if o.CompactMinDead <= 0 {
		o.CompactMinDead = DefaultCompactMinDead
	}
}

// DefaultCompactMinDead is the CompactMinDead applied when the option
// is unset. Exported so engines composing a disklog (the tiered store
// drives cold compaction itself) share the same trigger floor.
const DefaultCompactMinDead = 1 << 20

// idxRow locates one live row's value inside a segment.
type idxRow struct {
	ckey string
	seg  *reclog.Segment
	off  int64 // offset of the value bytes within seg
	vlen int
	rec  int64 // full record length (header + payload), for dead-byte accounting
}

// partition holds index rows sorted by clustering key.
type partition struct {
	rows []idxRow
}

func (p *partition) find(ckey string) (int, bool) {
	i := sort.Search(len(p.rows), func(i int) bool { return p.rows[i].ckey >= ckey })
	return i, i < len(p.rows) && p.rows[i].ckey == ckey
}

// Store is one node's disk engine. All methods are safe for concurrent
// use (a single mutex serializes them, matching the single-disk node
// the cluster models).
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options

	log *reclog.Log

	tables map[string]map[string]*partition
	stored int64 // logical live bytes: sum of len(ckey)+len(value)
	live   int64 // on-disk bytes of records that are still the latest version
	dead   int64 // on-disk bytes superseded by later records (compaction reclaims)

	werr   error // sticky write error, surfaced by Flush/Close
	closed bool
	// backingUp defers compaction (which closes and deletes segment
	// files) while Backup copies them outside the engine lock.
	backingUp bool

	enc []byte // scratch record-encode buffer
}

// Open opens (or creates) the engine rooted at dir, replaying the log
// to rebuild the index. A torn record at the tail of the final segment
// is truncated away; corruption anywhere else fails the open.
func Open(dir string, opts Options) (*Store, error) {
	opts.normalize()
	log, err := reclog.Open(dir, "seg", opts.SegmentBytes)
	if err != nil {
		return nil, fmt.Errorf("disklog: %w", err)
	}
	s := &Store{
		dir:    dir,
		opts:   opts,
		log:    log,
		tables: make(map[string]map[string]*partition),
	}
	if err := log.Scan(s.applyPayload); err != nil {
		log.Close()
		return nil, fmt.Errorf("disklog: %w", err)
	}
	return s, nil
}

// Factory builds disklog engines, one directory per cluster node,
// under root.
func Factory(root string, opts Options) backend.Factory {
	return func(node int) (backend.Backend, error) {
		return Open(filepath.Join(root, backend.NodeDir(node)), opts)
	}
}

// encodeRecord builds a full record in the scratch buffer and returns
// it along with the offset of the value bytes within it (put only).
func (s *Store) encodeRecord(op reclog.Op, table, pkey, ckey string, value []byte) (rec []byte, valOff int) {
	rec, valOff = reclog.Mutation{Op: op, Table: table, PKey: pkey, CKey: ckey, Value: value}.AppendRecord(s.enc[:0])
	s.enc = rec // keep the grown buffer for reuse
	return rec, valOff
}

// appendRecord writes rec to the log and returns the segment and the
// record's start offset. Write failures poison the engine; they surface
// on Flush/Close.
func (s *Store) appendRecord(rec []byte) (*reclog.Segment, int64) {
	seg, off, err := s.log.Append(rec)
	if err == nil && s.log.Unsynced() >= s.opts.SyncBytes {
		err = s.log.Sync()
	}
	if err != nil {
		s.werr = errors.Join(s.werr, fmt.Errorf("disklog: %w", err))
	}
	return seg, off
}

// applyPayload decodes one replayed record and applies it to the index.
func (s *Store) applyPayload(seg *reclog.Segment, recOff int64, payload []byte) error {
	m, valOff, err := reclog.DecodeMutation(payload)
	if err != nil {
		return err
	}
	recLen := int64(reclog.HeaderLen + len(payload))
	switch m.Op {
	case reclog.OpPut:
		s.applyPut(m.Table, m.PKey, idxRow{
			ckey: m.CKey, seg: seg, off: recOff + int64(valOff), vlen: len(m.Value), rec: recLen,
		})
	case reclog.OpDel:
		s.applyDelete(m.Table, m.PKey, m.CKey)
		s.dead += recLen // the tombstone itself is reclaimable
	case reclog.OpDrop:
		s.applyDrop(m.Table, m.PKey)
		s.dead += recLen
	}
	return nil
}

func (s *Store) partitionFor(table, pkey string, create bool) *partition {
	t, ok := s.tables[table]
	if !ok {
		if !create {
			return nil
		}
		t = make(map[string]*partition)
		s.tables[table] = t
	}
	p, ok := t[pkey]
	if !ok {
		if !create {
			return nil
		}
		p = &partition{}
		t[pkey] = p
	}
	return p
}

func (s *Store) applyPut(table, pkey string, row idxRow) {
	p := s.partitionFor(table, pkey, true)
	i, ok := p.find(row.ckey)
	if ok {
		old := p.rows[i]
		s.stored += int64(row.vlen - old.vlen)
		s.live += row.rec - old.rec
		s.dead += old.rec
		p.rows[i] = row
		return
	}
	p.rows = append(p.rows, idxRow{})
	copy(p.rows[i+1:], p.rows[i:])
	p.rows[i] = row
	s.stored += int64(row.vlen + len(row.ckey))
	s.live += row.rec
}

func (s *Store) applyDelete(table, pkey, ckey string) bool {
	p := s.partitionFor(table, pkey, false)
	if p == nil {
		return false
	}
	i, ok := p.find(ckey)
	if !ok {
		return false
	}
	s.stored -= int64(p.rows[i].vlen + len(ckey))
	s.live -= p.rows[i].rec
	s.dead += p.rows[i].rec
	p.rows = append(p.rows[:i], p.rows[i+1:]...)
	return true
}

func (s *Store) applyDrop(table, pkey string) bool {
	t, ok := s.tables[table]
	if !ok {
		return false
	}
	p, ok := t[pkey]
	if !ok {
		return false
	}
	for _, r := range p.rows {
		s.stored -= int64(r.vlen + len(r.ckey))
		s.live -= r.rec
		s.dead += r.rec
	}
	delete(t, pkey)
	return true
}

// --- Backend interface ----------------------------------------------

// mustOpenLocked panics on use after Close: the files are gone, so
// continuing would silently serve empty results — indistinguishable
// from data loss.
func (s *Store) mustOpenLocked() {
	if s.closed {
		panic("disklog: use after Close")
	}
}

// Put appends a put record and updates the index. Triggered compaction
// may run before returning.
func (s *Store) Put(table, pkey, ckey string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustOpenLocked()
	rec, valOff := s.encodeRecord(reclog.OpPut, table, pkey, ckey, value)
	seg, off := s.appendRecord(rec)
	s.applyPut(table, pkey, idxRow{
		ckey: ckey, seg: seg, off: off + int64(valOff), vlen: len(value), rec: int64(len(rec)),
	})
	s.maybeCompactLocked()
}

// Get reads the row's value back from its segment.
func (s *Store) Get(table, pkey, ckey string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustOpenLocked()
	p := s.partitionFor(table, pkey, false)
	if p == nil {
		return nil, false
	}
	i, ok := p.find(ckey)
	if !ok {
		return nil, false
	}
	v, err := s.readValue(p.rows[i])
	if err != nil {
		s.werr = errors.Join(s.werr, err)
		return nil, false
	}
	return v, true
}

func (s *Store) readValue(row idxRow) ([]byte, error) {
	out := make([]byte, row.vlen)
	if row.vlen == 0 {
		return out, nil
	}
	if _, err := row.seg.ReadAt(out, row.off); err != nil {
		return nil, fmt.Errorf("disklog: read %s@%d: %w", row.seg.Path(), row.off, err)
	}
	return out, nil
}

// Stat reports whether the row exists and its value length from the
// in-memory index alone — no disk read. Tiered engines use it for byte
// accounting of rows shadowed by a hotter tier.
func (s *Store) Stat(table, pkey, ckey string) (vlen int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustOpenLocked()
	p := s.partitionFor(table, pkey, false)
	if p == nil {
		return 0, false
	}
	i, ok := p.find(ckey)
	if !ok {
		return 0, false
	}
	return p.rows[i].vlen, true
}

// MultiGet is the batch-read fast path: the whole batch resolves under
// one lock acquisition. result[i] is nil exactly when reqs[i] is absent
// (or its segment read failed; the error surfaces at the next Flush).
func (s *Store) MultiGet(reqs []backend.KeyRead) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustOpenLocked()
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		p := s.partitionFor(r.Table, r.PKey, false)
		if p == nil {
			continue
		}
		j, ok := p.find(r.CKey)
		if !ok {
			continue
		}
		v, err := s.readValue(p.rows[j])
		if err != nil {
			s.werr = errors.Join(s.werr, err)
			continue
		}
		out[i] = v
	}
	return out
}

// ScanPrefix returns the partition's rows with clustering keys starting
// with prefix, in clustering order.
func (s *Store) ScanPrefix(table, pkey, prefix string) []backend.Row {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustOpenLocked()
	p := s.partitionFor(table, pkey, false)
	if p == nil {
		return nil
	}
	var out []backend.Row
	i := sort.Search(len(p.rows), func(i int) bool { return p.rows[i].ckey >= prefix })
	for ; i < len(p.rows) && strings.HasPrefix(p.rows[i].ckey, prefix); i++ {
		v, err := s.readValue(p.rows[i])
		if err != nil {
			s.werr = errors.Join(s.werr, err)
			continue
		}
		out = append(out, backend.Row{CKey: p.rows[i].ckey, Value: v})
	}
	return out
}

// IterNewest streams the live rows in reverse append order — the row
// whose latest record was written last comes first — calling fn for
// each until fn returns false. This is the warm-up path of engines
// layered over a disklog cold tier: the newest rows are exactly the
// recent timespans a restart should repopulate into memory, and the
// reverse walk touches only as many segments (back to front) as the
// caller's budget consumes. Tombstones need no special handling — the
// index holds live rows only, so deleted rows never surface.
//
// The engine lock is released between calls: fn must not re-enter the
// store, and rows are re-validated against the index per visit, so
// concurrent deletes (skipped) and compactions (served from the row's
// new location) are safe.
func (s *Store) IterNewest(fn func(table, pkey, ckey string, value []byte) bool) error {
	type ref struct {
		table, pkey, ckey string
		off               int64
	}
	// One pass over the in-memory index buckets the refs per segment —
	// O(live rows) snapshot work per call (the strings share the index's
	// backing, so the transient cost is slice/struct headers, a fraction
	// of the resident index itself). The per-segment offset sort happens
	// lazily as the back-to-front walk reaches each segment, so an
	// early-stopping caller never pays for ordering the old segments it
	// will not visit — nor their disk reads.
	s.mu.Lock()
	s.mustOpenLocked()
	buckets := make(map[int][]ref)
	for table, parts := range s.tables {
		for pkey, p := range parts {
			for _, row := range p.rows {
				buckets[row.seg.ID()] = append(buckets[row.seg.ID()], ref{table: table, pkey: pkey, ckey: row.ckey, off: row.off})
			}
		}
	}
	s.mu.Unlock()
	segIDs := make([]int, 0, len(buckets))
	for id := range buckets {
		segIDs = append(segIDs, id)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(segIDs)))
	for _, id := range segIDs {
		refs := buckets[id]
		sort.Slice(refs, func(i, j int) bool { return refs[i].off > refs[j].off })
		for _, r := range refs {
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return errors.New("disklog: iter on closed store")
			}
			p := s.partitionFor(r.table, r.pkey, false)
			if p == nil {
				s.mu.Unlock()
				continue
			}
			i, ok := p.find(r.ckey)
			if !ok {
				s.mu.Unlock()
				continue
			}
			v, err := s.readValue(p.rows[i])
			s.mu.Unlock()
			if err != nil {
				return err
			}
			if !fn(r.table, r.pkey, r.ckey, v) {
				return nil
			}
		}
	}
	return nil
}

// Delete appends a tombstone record and removes the row from the index.
func (s *Store) Delete(table, pkey, ckey string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustOpenLocked()
	p := s.partitionFor(table, pkey, false)
	if p == nil {
		return false
	}
	if _, ok := p.find(ckey); !ok {
		return false
	}
	rec, _ := s.encodeRecord(reclog.OpDel, table, pkey, ckey, nil)
	s.appendRecord(rec)
	s.applyDelete(table, pkey, ckey)
	s.dead += int64(len(rec))
	s.maybeCompactLocked()
	return true
}

// DropPartition appends a drop record and removes the partition.
func (s *Store) DropPartition(table, pkey string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustOpenLocked()
	if t, ok := s.tables[table]; !ok {
		return
	} else if _, ok := t[pkey]; !ok {
		return
	}
	rec, _ := s.encodeRecord(reclog.OpDrop, table, pkey, "", nil)
	s.appendRecord(rec)
	s.applyDrop(table, pkey)
	s.dead += int64(len(rec))
	s.maybeCompactLocked()
}

// HasPartition reports whether the table holds the partition object
// (an emptied partition still counts until dropped) — an index-only
// lookup, no disk access.
func (s *Store) HasPartition(table, pkey string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustOpenLocked()
	_, ok := s.tables[table][pkey]
	return ok
}

// PartitionKeys returns the sorted partition keys of a table.
func (s *Store) PartitionKeys(table string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustOpenLocked()
	t, ok := s.tables[table]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(t))
	for pk := range t {
		out = append(out, pk)
	}
	sort.Strings(out)
	return out
}

// Tables returns the sorted table names holding at least one partition.
func (s *Store) Tables() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustOpenLocked()
	out := make([]string, 0, len(s.tables))
	for t := range s.tables {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// StoredBytes returns the logical live bytes held by this engine.
func (s *Store) StoredBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stored
}

// DeadBytes returns the on-disk bytes reclaimable by compaction.
func (s *Store) DeadBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead
}

// Segments returns the number of log files (inspection/testing).
func (s *Store) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Len()
}

// Flush fsyncs the active segment and reports any sticky write error.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if s.closed {
		return errors.Join(s.werr, errors.New("disklog: store closed"))
	}
	if err := s.log.Sync(); err != nil {
		s.werr = errors.Join(s.werr, fmt.Errorf("disklog: %w", err))
	}
	return s.werr
}

// Close flushes and closes every segment file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.werr
	}
	err := s.flushLocked()
	s.log.Close()
	s.closed = true
	return err
}

// --- compaction ------------------------------------------------------

// maybeCompactLocked runs a compaction when the reclaimable volume
// exceeds both the configured floor and the live volume (i.e. the log
// is more than half garbage).
func (s *Store) maybeCompactLocked() {
	if s.opts.DisableAutoCompact || s.werr != nil || s.backingUp {
		return
	}
	if s.dead < s.opts.CompactMinDead || s.dead <= s.live {
		return
	}
	if err := s.compactLocked(); err != nil {
		s.werr = errors.Join(s.werr, err)
	}
}

// Compact rewrites all live rows into fresh segments and deletes the
// old files. Crash-safe: the compacted segments carry higher ids than
// the ones they replace, so a crash between writing them and removing
// the old files replays both — old records first, then the compacted
// live rows — converging on the same state.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("disklog: store closed")
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	if s.backingUp {
		return errors.New("disklog: compaction deferred during backup")
	}
	old := s.log.Segments()
	abort := func() { s.dropOutput(len(old)) }

	// Write every live row, in deterministic order, into fresh segments.
	if err := s.log.Rotate(); err != nil {
		abort()
		return fmt.Errorf("disklog: compact: %w", err)
	}
	var (
		newLive   int64
		newStored int64
		relocated = make(map[string]map[string]*partition)
	)
	tables := make([]string, 0, len(s.tables))
	for tbl := range s.tables {
		tables = append(tables, tbl)
	}
	sort.Strings(tables)
	for _, tbl := range tables {
		pkeys := make([]string, 0, len(s.tables[tbl]))
		for pk := range s.tables[tbl] {
			pkeys = append(pkeys, pk)
		}
		sort.Strings(pkeys)
		nt := make(map[string]*partition, len(pkeys))
		relocated[tbl] = nt
		for _, pk := range pkeys {
			oldPart := s.tables[tbl][pk]
			np := &partition{rows: make([]idxRow, 0, len(oldPart.rows))}
			nt[pk] = np
			for _, row := range oldPart.rows {
				v, err := s.readValue(row)
				if err != nil {
					abort()
					return fmt.Errorf("disklog: compact: %w", err)
				}
				rec, valOff := s.encodeRecord(reclog.OpPut, tbl, pk, row.ckey, v)
				seg, off := s.appendRecord(rec)
				if s.werr != nil {
					abort()
					return s.werr
				}
				np.rows = append(np.rows, idxRow{
					ckey: row.ckey, seg: seg, off: off + int64(valOff),
					vlen: row.vlen, rec: int64(len(rec)),
				})
				newLive += int64(len(rec))
				newStored += int64(row.vlen + len(row.ckey))
			}
		}
	}
	if err := s.log.Sync(); err != nil {
		abort()
		return fmt.Errorf("disklog: compact: %w", err)
	}

	// Point of no return: adopt the new index, then delete old files.
	s.tables = relocated
	s.stored = newStored
	s.live = newLive
	s.dead = 0
	return s.log.Remove(old)
}

// dropOutput backs a failed rewrite out: it removes every segment past
// the first n, which makes segment n-1 active again. Leaving a partial
// higher-id segment behind would be corruption: it replays after the
// old segments and its stale rows would shadow post-failure writes.
func (s *Store) dropOutput(n int) {
	s.log.Remove(s.log.Segments()[n:])
}

// MergeSmall merges the maximal run of small segments at the tail of
// the log — the "newest level", where rotation and trickle flushes
// leave many small files — into fresh segments, dropping superseded
// put records along the way. Tombstone records are carried over
// verbatim (a delete in the tail may kill a row recorded in an older,
// untouched segment; dropping it would resurrect that row on replay),
// so the merge never has to read the large old segments: exactly the
// leveled behavior that keeps steady-state compaction cost proportional
// to the new data, not the whole log. Segments of at most maxBytes
// (SegmentBytes/4 when <= 0) qualify; fewer than minSegs (floor 2)
// qualifying segments is a no-op. Returns the number of segments
// merged. Crash-safe like Compact: merged records land in higher-id
// segments, so a crash between writing them and removing the originals
// replays both and converges.
func (s *Store) MergeSmall(maxBytes int64, minSegs int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errors.New("disklog: store closed")
	}
	if s.werr != nil || s.backingUp {
		return 0, nil
	}
	if maxBytes <= 0 {
		maxBytes = s.opts.SegmentBytes / 4
	}
	if minSegs < 2 {
		minSegs = 2
	}
	segs := s.log.Segments()
	from := len(segs)
	for from > 0 && segs[from-1].Size() <= maxBytes {
		from--
	}
	n := len(segs) - from
	if n < minSegs {
		return 0, nil
	}
	if err := s.mergeLocked(segs[from:]); err != nil {
		return 0, err
	}
	return n, nil
}

// mergeLocked rewrites old, the segments at the tail of the log, into
// fresh higher-id segments: live put records and all tombstones are
// copied verbatim (in order), dead puts are dropped. Every record is
// checksum-verified before it is copied forward; a bad one aborts the
// merge with reclog.ErrCorrupt, the originals and the index untouched.
// The index is repointed only after the new segments are synced.
func (s *Store) mergeLocked(old []*reclog.Segment) error {
	type repoint struct {
		table, pkey string
		row         idxRow
	}
	var (
		repoints  []repoint
		deadFreed int64
	)
	before := s.log.Len()
	abort := func() { s.dropOutput(before) }
	err := s.log.Rotate()
	for i := 0; err == nil && i < len(old); i++ {
		seg := old[i]
		err = seg.Scan(false, func(off int64, payload []byte) error {
			m, valOff, err := reclog.DecodeMutation(payload)
			if err != nil {
				return err
			}
			recLen := int64(reclog.HeaderLen + len(payload))
			live := false
			if m.Op == reclog.OpPut {
				if p := s.partitionFor(m.Table, m.PKey, false); p != nil {
					if i, ok := p.find(m.CKey); ok {
						live = p.rows[i].seg == seg && p.rows[i].off == off+int64(valOff)
					}
				}
				if !live { // superseded put: reclaimed
					deadFreed += recLen
					return nil
				}
			}
			// A live put moves; a tombstone is kept for its effect on
			// older segments.
			s.enc = reclog.Frame(s.enc[:0], payload)
			newSeg, newOff := s.appendRecord(s.enc)
			if live {
				repoints = append(repoints, repoint{table: m.Table, pkey: m.PKey, row: idxRow{
					ckey: m.CKey, seg: newSeg, off: newOff + int64(valOff), vlen: len(m.Value), rec: recLen,
				}})
			}
			return s.werr
		})
	}
	if err == nil {
		err = s.log.Sync()
	}
	if err != nil {
		abort()
		return fmt.Errorf("disklog: merge: %w", err)
	}

	// Point of no return: adopt the relocations, then delete old files.
	for _, rp := range repoints {
		p := s.partitionFor(rp.table, rp.pkey, false)
		if p == nil {
			continue
		}
		if i, ok := p.find(rp.row.ckey); ok {
			p.rows[i] = rp.row
		}
	}
	s.dead -= deadFreed
	return s.log.Remove(old)
}

// Backup writes a consistent copy of the engine's segment files into
// dir (created if needed, must be empty of segments). The segment set
// and sizes are snapshotted under the engine lock after an fsync (so
// the copy carries every acknowledged write), but the bulk copy runs
// outside it: reads and writes proceed while the files are copied —
// appends past the snapshotted sizes are simply not part of the backup,
// and compaction (which would delete the files mid-copy) is deferred
// until the backup finishes. The copy opens as a normal disklog
// directory.
func (s *Store) Backup(dir string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("disklog: backup of closed store")
	}
	if s.backingUp {
		s.mu.Unlock()
		return errors.New("disklog: backup already in progress")
	}
	if err := s.flushLocked(); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("disklog: backup: %w", err)
	}
	snap := s.log.Snapshot()
	s.backingUp = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.backingUp = false
		s.mu.Unlock()
	}()
	if err := snap.CopyTo(dir); err != nil {
		return fmt.Errorf("disklog: backup: %w", err)
	}
	return nil
}

// String describes the engine state (fmt.Stringer, for inspection).
func (s *Store) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("disklog(%s: %d segments, %dB live, %dB dead)",
		s.dir, s.log.Len(), s.live, s.dead)
}

var _ backend.Backend = (*Store)(nil)
var _ io.Closer = (*Store)(nil)
