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
// A store holds an exclusive lock on its directory for its lifetime:
// two live handles would each append to the same segment files from
// their own offsets and overwrite each other's acknowledged records, so
// a second Open of a live directory fails fast. On platforms with
// flock(2) the lock dies with the process, so a crash never leaves the
// directory unopenable; elsewhere a PID-stamped LOCK file is used and a
// stale one left by a crash must be removed by hand (the error says
// which).
//
// Options.HotBytes lets index rows carry a resident copy of their value,
// so reads of recently written rows skip the disk. Put and the replay in
// Open admit values (the replay copies those of the log's final HotBytes
// out of the log it is reading anyway, so a reopened store holds its
// newest rows when Open returns); overwrites, deletes and drops release
// them, and once the resident bytes pass the budget the oldest admitted
// copies are released first in, first out. With HotBytes zero (the
// default) no value is held and every read goes to disk. TierCounters
// reports the split.
//
// The engine follows the same interface as the in-memory memtable, so a
// kvstore cluster can run each node on disk and a store can be closed
// and reopened by a new process without rebuilding the index.
package disklog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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
	// compaction never runs (default 1 MiB). Compaction triggers after
	// a write once dead bytes exceed both this floor and the live bytes.
	CompactMinDead int64
	// DisableAutoCompact turns triggered compaction off; Compact can
	// still be called explicitly.
	DisableAutoCompact bool
	// HotBytes bounds the resident value copies (clustering key plus
	// value bytes per row); zero keeps none. Rows larger than the whole
	// budget are never admitted.
	HotBytes int64
}

func (o *Options) normalize() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SyncBytes <= 0 {
		o.SyncBytes = 4 << 20
	}
	if o.CompactMinDead <= 0 {
		o.CompactMinDead = 1 << 20
	}
}

// idxRow locates one live row's value inside a segment.
type idxRow struct {
	ckey string
	seg  *reclog.Segment
	off  int64 // offset of the value bytes within seg
	// vlen and rec (the full record length, header + payload, for
	// dead-byte accounting) take 32 bits, which keeps a row at 48 bytes:
	// a record past reclog's 1 GiB payload bound does not survive a
	// replay anyway.
	vlen, rec int32
	hot       *resident // the value's copy in memory, nil when not resident
}

// resident is a row's in-memory copy of its value. Its address names
// the admission in the eviction queue, and compaction carries it along
// with the row, so the copy stays evictable.
type resident struct{ val []byte }

// hotRef is one eviction-queue entry, oldest admission at the front.
// An entry whose row no longer holds its copy is stale: the copy was
// released or replaced since.
type hotRef struct {
	table, pkey, ckey string
	hot               *resident
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
	lock   *dirLock // exclusive LOCK on dir, held until Close or Kill
	// backingUp defers compaction (which closes and deletes segment
	// files) while Backup copies them outside the engine lock.
	backingUp bool

	enc []byte // scratch record-encode buffer

	// The resident copies: their bytes, the eviction queue and how many
	// of its entries are stale.
	hot   int64
	queue []hotRef
	stale int

	hotHits      atomic.Int64
	coldReads    atomic.Int64
	flushedBytes atomic.Int64
	hotGauge     atomic.Int64 // mirror of hot, for lock-free TierCounters
	compactions  atomic.Int64 // completed compactions, for tier counters
}

// Open opens (or creates) the engine rooted at dir, replaying the log
// to rebuild the index and admitting resident values as it goes. A torn
// record at the tail of the final segment is truncated away; corruption
// anywhere else fails the open. The directory is locked first, so Open
// fails fast when another live handle holds it.
func Open(dir string, opts Options) (*Store, error) {
	opts.normalize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disklog: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	log, err := reclog.Open(dir, "seg", opts.SegmentBytes)
	if err != nil {
		lock.release()
		return nil, fmt.Errorf("disklog: %w", err)
	}
	s := &Store{
		dir:    dir,
		opts:   opts,
		log:    log,
		lock:   lock,
		tables: make(map[string]map[string]*partition),
	}
	// Only records in the log's final HotBytes admit their values: older
	// ones could at most fill what dead records in that tail leave free,
	// and copying them would make every open copy the whole log.
	var logBytes, segStart int64
	for _, seg := range log.Segments() {
		logBytes += seg.Size()
	}
	var cur *reclog.Segment
	err = log.Scan(func(seg *reclog.Segment, off int64, payload []byte) error {
		if seg != cur {
			if cur != nil {
				segStart += cur.Size()
			}
			cur = seg
		}
		return s.applyPayload(seg, off, payload, logBytes-segStart-off <= opts.HotBytes)
	})
	if err != nil {
		log.Close()
		lock.release()
		return nil, fmt.Errorf("disklog: %w", err)
	}
	return s, nil
}

// dirLock is the exclusive per-directory lock handed out by lockDir
// (see lock_flock.go and lock_fallback.go for the per-platform
// implementations).
type dirLock struct {
	f *os.File
	// path is set only by the portable fallback, which must unlink the
	// LOCK file on release; the flock path leaves the file in place and
	// lets the OS drop the lock when f closes.
	path string
}

func (l *dirLock) release() {
	l.f.Close()
	if l.path != "" {
		os.Remove(l.path)
	}
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
func (s *Store) applyPayload(seg *reclog.Segment, recOff int64, payload []byte, admit bool) error {
	m, valOff, err := reclog.DecodeMutation(payload)
	if err != nil {
		return err
	}
	recLen := int64(reclog.HeaderLen + len(payload))
	switch m.Op {
	case reclog.OpPut:
		row := idxRow{ckey: m.CKey, seg: seg, off: recOff + int64(valOff), vlen: int32(len(m.Value)), rec: int32(recLen)}
		if admit && s.admits(m.CKey, m.Value) {
			row.hot = &resident{append([]byte(nil), m.Value...)} // the payload buffer is reused
		}
		s.applyPut(m.Table, m.PKey, row)
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

// applyPut installs row, replacing any older version of it, and queues
// its resident copy, if any, for eviction.
func (s *Store) applyPut(table, pkey string, row idxRow) {
	if row.hot != nil {
		s.hot += int64(len(row.ckey) + len(row.hot.val))
		s.queue = append(s.queue, hotRef{table: table, pkey: pkey, ckey: row.ckey, hot: row.hot})
	}
	p := s.partitionFor(table, pkey, true)
	i, ok := p.find(row.ckey)
	if ok {
		old := &p.rows[i]
		s.release(old)
		s.stored += int64(row.vlen - old.vlen)
		s.live += int64(row.rec - old.rec)
		s.dead += int64(old.rec)
		*old = row
	} else {
		p.rows = append(p.rows, idxRow{})
		copy(p.rows[i+1:], p.rows[i:])
		p.rows[i] = row
		s.stored += int64(int(row.vlen) + len(row.ckey))
		s.live += int64(row.rec)
	}
	s.evict()
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
	s.release(&p.rows[i])
	s.stored -= int64(int(p.rows[i].vlen) + len(ckey))
	s.live -= int64(p.rows[i].rec)
	s.dead += int64(p.rows[i].rec)
	p.rows = append(p.rows[:i], p.rows[i+1:]...)
	s.evict() // publishes the gauge; compacts a mostly stale queue
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
	for i := range p.rows {
		r := &p.rows[i]
		s.release(r)
		s.stored -= int64(int(r.vlen) + len(r.ckey))
		s.live -= int64(r.rec)
		s.dead += int64(r.rec)
	}
	delete(t, pkey)
	s.evict()
	return true
}

// --- resident values (callers hold mu) --------------------------------

// admits reports whether a row fits the resident budget at all.
func (s *Store) admits(ckey string, value []byte) bool {
	return s.opts.HotBytes > 0 && int64(len(ckey)+len(value)) <= s.opts.HotBytes
}

// release drops r's resident copy, if any; its queue entry goes stale.
func (s *Store) release(r *idxRow) {
	if r.hot == nil {
		return
	}
	s.hot -= int64(len(r.ckey) + len(r.hot.val))
	r.hot = nil
	s.stale++
}

// queued returns the row a queue entry refers to, or nil when the entry
// is stale.
func (s *Store) queued(ref hotRef) *idxRow {
	p := s.partitionFor(ref.table, ref.pkey, false)
	if p == nil {
		return nil
	}
	i, ok := p.find(ref.ckey)
	if !ok || p.rows[i].hot != ref.hot {
		return nil
	}
	return &p.rows[i]
}

// evict releases the oldest admissions until the resident copies fit
// the budget, then compacts the queue once stale entries make up half
// of it (amortized O(1) per write: every stale entry was minted by one
// write), so overwrite churn under the budget cannot grow it without
// bound.
func (s *Store) evict() {
	if len(s.queue) == 0 {
		return // nothing is resident, and the gauge already reads zero
	}
	for s.hot > s.opts.HotBytes && len(s.queue) > 0 {
		if r := s.queued(s.queue[0]); r != nil {
			s.release(r)
		}
		s.queue[0] = hotRef{}
		s.queue = s.queue[1:]
		s.stale--
	}
	if len(s.queue) >= 64 && s.stale*2 >= len(s.queue) {
		live := s.queue[:0]
		for _, ref := range s.queue {
			if s.queued(ref) != nil {
				live = append(live, ref)
			}
		}
		clear(s.queue[len(live):])
		s.queue = live
		s.stale = 0
	}
	s.hotGauge.Store(s.hot)
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

// Put appends a put record and updates the index; the value (retained,
// per the Backend contract) becomes the row's resident copy when it fits
// the budget. Triggered compaction may run before returning.
func (s *Store) Put(table, pkey, ckey string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustOpenLocked()
	rec, valOff := s.encodeRecord(reclog.OpPut, table, pkey, ckey, value)
	seg, off := s.appendRecord(rec)
	row := idxRow{ckey: ckey, seg: seg, off: off + int64(valOff), vlen: int32(len(value)), rec: int32(len(rec))}
	if s.admits(ckey, value) {
		row.hot = &resident{value}
	}
	s.applyPut(table, pkey, row)
	s.flushedBytes.Add(int64(len(value)))
	s.maybeCompactLocked()
}

// Get returns the row's value from its resident copy, or reads it back
// from its segment.
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
	var n reads
	v, ok := s.value(&p.rows[i], &n)
	s.count(n)
	return v, ok
}

// reads counts row reads by where they were served from.
type reads struct{ hot, cold int64 }

// value returns a caller-owned copy of row's value, from its resident
// copy when it has one, else from its segment, and counts the read in
// n. A failed segment read poisons the engine (the error surfaces at
// the next Flush) and reports the row absent.
func (s *Store) value(row *idxRow, n *reads) ([]byte, bool) {
	if row.hot != nil {
		n.hot++
		return append([]byte{}, row.hot.val...), true
	}
	out := make([]byte, row.vlen)
	if row.vlen > 0 {
		if _, err := row.seg.ReadAt(out, row.off); err != nil {
			s.werr = errors.Join(s.werr, fmt.Errorf("disklog: read %s@%d: %w", row.seg.Path(), row.off, err))
			return nil, false
		}
	}
	n.cold++
	return out, true
}

func (s *Store) count(n reads) {
	if n.hot > 0 {
		s.hotHits.Add(n.hot)
	}
	if n.cold > 0 {
		s.coldReads.Add(n.cold)
	}
}

// MultiGet is the batch-read fast path: the whole batch resolves under
// one lock acquisition. result[i] is nil exactly when reqs[i] is absent
// (or its segment read failed; the error surfaces at the next Flush).
func (s *Store) MultiGet(reqs []backend.KeyRead) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustOpenLocked()
	out := make([][]byte, len(reqs))
	var n reads
	for i, r := range reqs {
		p := s.partitionFor(r.Table, r.PKey, false)
		if p == nil {
			continue
		}
		j, ok := p.find(r.CKey)
		if !ok {
			continue
		}
		out[i], _ = s.value(&p.rows[j], &n)
	}
	s.count(n)
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
	lo := sort.Search(len(p.rows), func(i int) bool { return p.rows[i].ckey >= prefix })
	hi := lo
	for hi < len(p.rows) && strings.HasPrefix(p.rows[hi].ckey, prefix) {
		hi++
	}
	if hi == lo {
		return nil
	}
	out := make([]backend.Row, 0, hi-lo)
	var n reads
	for i := lo; i < hi; i++ {
		if v, ok := s.value(&p.rows[i], &n); ok {
			out = append(out, backend.Row{CKey: p.rows[i].ckey, Value: v})
		}
	}
	s.count(n)
	return out
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
	s.lock.release()
	s.closed = true
	return err
}

// Kill simulates a crash (testing aid): the files close without a final
// fsync, the directory lock is released, and the store becomes
// unusable. Open recovers from what is left on disk.
func (s *Store) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.log.Close()
	s.lock.release()
	s.closed = true
}

// Compactions returns the number of compactions completed so far,
// triggered or explicit (lock-free).
func (s *Store) Compactions() int64 { return s.compactions.Load() }

// TierCounters reports where reads were served from (lock-free): HotHits
// from resident copies, ColdReads from segments. FlushedBytes counts the
// value bytes Put wrote to the log, HotBytes the resident bytes now.
func (s *Store) TierCounters() backend.TierCounters {
	return backend.TierCounters{
		HotHits:      s.hotHits.Load(),
		ColdReads:    s.coldReads.Load(),
		FlushedBytes: s.flushedBytes.Load(),
		Compactions:  s.compactions.Load(),
		HotBytes:     s.hotGauge.Load(),
	}
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
	fail := func(err error) error {
		s.dropOutput(len(old))
		return fmt.Errorf("disklog: compact: %w", err)
	}

	// Copy every live record, in deterministic order, into fresh
	// segments. A put record ends with its value, so the index locates
	// the whole record and it moves verbatim, in batches of at most one
	// segment (and 1 MiB): runs of records adjacent on disk are read with
	// one ReadAt, and each batch is checksum-verified — a corrupt record
	// aborts the compaction rather than being copied forward — and
	// written with one append.
	if err := s.log.Rotate(); err != nil {
		return fail(err)
	}
	type placed struct {
		p *partition
		i int // np.rows[i].off holds the value's offset within buf until written
	}
	var (
		newLive   int64
		newStored int64
		relocated = make(map[string]map[string]*partition)
		buf       = s.enc[:0] // the scratch buffer, kept for the next compaction
		pending   []placed
		run       *reclog.Segment // the segment of the read run buf[runPos:] awaits
		runStart  int64
		runEnd    int64
		runPos    int
	)
	readRun := func() error {
		if run != nil && runEnd > runStart {
			if _, err := run.ReadAt(buf[runPos:], runStart); err != nil {
				return fmt.Errorf("read %s@%d: %w", run.Path(), runStart, err)
			}
		}
		run = nil
		return nil
	}
	flush := func() error {
		if err := readRun(); err != nil || len(buf) == 0 {
			return err
		}
		valid, err := reclog.Scan(bytes.NewReader(buf), int64(len(buf)), func(int64, []byte) error { return nil })
		if err != nil {
			return err
		}
		if valid != int64(len(buf)) {
			return reclog.ErrCorrupt
		}
		seg, off := s.appendRecord(buf)
		if s.werr != nil {
			return s.werr
		}
		for _, pl := range pending {
			pl.p.rows[pl.i].seg = seg
			pl.p.rows[pl.i].off += off
		}
		buf, pending = buf[:0], pending[:0]
		return nil
	}
	batchBytes := min(s.opts.SegmentBytes, 1<<20)
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
			np := &partition{rows: make([]idxRow, len(oldPart.rows))}
			nt[pk] = np
			for i, row := range oldPart.rows {
				if len(buf) > 0 && int64(len(buf))+int64(row.rec) > batchBytes {
					if err := flush(); err != nil {
						return fail(err)
					}
				}
				start := row.off + int64(row.vlen) - int64(row.rec)
				if row.seg != run || start != runEnd {
					if err := readRun(); err != nil {
						return fail(err)
					}
					run, runStart, runEnd, runPos = row.seg, start, start, len(buf)
				}
				runEnd += int64(row.rec)
				np.rows[i] = row // keeps the resident copy
				np.rows[i].off = int64(len(buf)) + int64(row.rec) - int64(row.vlen)
				buf = append(buf, make([]byte, row.rec)...)
				pending = append(pending, placed{np, i})
				newLive += int64(row.rec)
				newStored += int64(int(row.vlen) + len(row.ckey))
			}
		}
	}
	if err := flush(); err != nil {
		return fail(err)
	}
	s.enc = buf
	if err := s.log.Sync(); err != nil {
		return fail(err)
	}

	// Point of no return: adopt the new index, then delete old files.
	s.tables = relocated
	s.stored = newStored
	s.live = newLive
	s.dead = 0
	s.compactions.Add(1)
	return s.log.Remove(old)
}

// dropOutput backs a failed rewrite out: it removes every segment past
// the first n, which makes segment n-1 active again. Leaving a partial
// higher-id segment behind would be corruption: it replays after the
// old segments and its stale rows would shadow post-failure writes.
func (s *Store) dropOutput(n int) {
	s.log.Remove(s.log.Segments()[n:])
}

// backupCopyHook, when set, runs after the backup has snapshotted the
// log and released the engine lock, before any file is copied — a
// testing seam proving that foreground operations proceed while a
// large backup streams.
var backupCopyHook func()

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
	if hook := backupCopyHook; hook != nil {
		hook()
	}
	if err := snap.CopyTo(dir); err != nil {
		return fmt.Errorf("disklog: backup: %w", err)
	}
	return nil
}

// String describes the engine state (fmt.Stringer, for inspection).
func (s *Store) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("disklog(%s: %d segments, %dB live, %dB dead, %dB resident)",
		s.dir, s.log.Len(), s.live, s.dead, s.hot)
}

var _ backend.Backend = (*Store)(nil)
var _ io.Closer = (*Store)(nil)
