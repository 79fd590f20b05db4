// Package tiered is a hot/cold storage engine: recent writes live in an
// in-memory memtable (the hot tier) and are made durable by a
// write-ahead log, while a background goroutine flushes them into a
// disklog segment store (the cold tier) under a configurable byte-rate
// limit. Reads check memory then cold, so the working set the paper
// calls hot — the newest timespans and deltas, which most queries touch
// — is served from memory without disk I/O, while historical partitions
// stay durable and cheap on disk.
//
// Alongside the hot rows, memory holds a warm tier: read-only copies of
// the newest cold rows, carrying no WAL or flush obligations. On open,
// warm-up repopulates it from the cold tier's newest rows (up to the
// HotBytes budget, newest-first, in the background), so a process
// restart does not demote the recency-skewed working set to cold-read
// latency; idle-time drains re-home flushed hot rows there, keeping
// them memory-served after their durability moved to the cold log.
// Hot rows and warmed copies share the HotBytes budget; under memory
// pressure warmed copies are evicted first — dropping one costs no I/O.
//
// Write path: every mutation appends one WAL record and applies to the
// memtable; nothing waits on the cold tier. The flusher moves the
// oldest hot rows into the cold disklog in small chunks (at most
// Options.CompactRate bytes per second), fsyncs the cold tier, and only
// then drops the rows from the memtable and retires WAL segments whose
// records are all either superseded or durably cold — so a crash at any
// instant recovers by opening the cold tier and replaying the remaining
// WAL into the hot tier. Foreground reads never wait on a flush: memory
// hits touch only the memtables, and the flusher holds no lock while it
// sleeps off the rate limit.
//
// Scheduling is idle-aware: while foreground traffic is active,
// flushing throttles to CompactRate and the cold tier only gets the
// cheap leveled merge of small newest segments; once the store has been
// quiet for Options.IdleCompactAfter, maintenance runs at full speed —
// the hot tier drains completely into cold segments (with the rows kept
// warm in memory) and whole-log cold compaction runs while nobody is
// waiting on the disk.
//
// Error model: a cold-tier or WAL I/O failure is recorded in a sticky
// error that halts background migration (the safe state — nothing is
// dropped from the hot tier or retired from the WAL on faith) and is
// returned by every subsequent Flush and by Close. Callers must stop
// ingesting once Flush fails; the hgs write path does this naturally
// because every Load/Append batch ends in a cluster Flush.
//
// The engine implements backend.Backend, backend.Tiered (per-tier read
// counters surfaced through kvstore.Metrics, per-call cold-row counts
// for the latency model) and backend.Backuper.
package tiered

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hgs/internal/backend"
	"hgs/internal/backend/disklog"
	"hgs/internal/backend/memtable"
	"hgs/internal/reclog"
)

// walPrefix names the write-ahead log's segment files (wal-%08d.log).
const walPrefix = "wal"

// Options tune the engine. Zero values take the defaults.
type Options struct {
	// HotBytes is the hot-tier budget: once the memtable's live bytes
	// exceed it, the background flusher drains the oldest rows to the
	// cold tier until the memtable is at half the budget (default 32 MiB).
	HotBytes int64
	// CompactRate caps background flushing at this many bytes per
	// second, so a flush storm cannot monopolize the disk foreground
	// reads are using. Zero selects the 8 MiB/s default; negative
	// disables the limit.
	CompactRate int64
	// FlushInterval is the background maintenance period (default 25ms).
	FlushInterval time.Duration
	// WALSegmentBytes rotates the write-ahead log after this many bytes
	// (default 16 MiB). Smaller segments retire sooner after flushes.
	WALSegmentBytes int64
	// WALSyncBytes fsyncs the WAL after this many appended bytes
	// (default 1 MiB). Flush and Close always fsync.
	WALSyncBytes int64
	// DisableWarm turns off hot-tier warm-up: by default, opening a
	// directory that already holds cold data repopulates memory with the
	// newest cold rows (up to HotBytes) in the background, so the first
	// queries after a restart are served like the process never died.
	DisableWarm bool
	// IdleCompactAfter is the foreground-quiet window after which
	// background maintenance stops throttling to CompactRate and runs at
	// full speed, draining the hot tier into durable cold segments while
	// keeping the drained rows memory-resident as warmed copies (default
	// 1s; negative disables idle-mode maintenance entirely).
	IdleCompactAfter time.Duration
	// Cold tunes the cold-tier disklog. Its triggered auto-compaction is
	// always disabled: the background goroutine owns cold compaction.
	Cold disklog.Options
}

func (o *Options) normalize() {
	if o.HotBytes <= 0 {
		o.HotBytes = 32 << 20
	}
	if o.CompactRate == 0 {
		o.CompactRate = 8 << 20
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 25 * time.Millisecond
	}
	if o.WALSegmentBytes <= 0 {
		o.WALSegmentBytes = 16 << 20
	}
	if o.WALSyncBytes <= 0 {
		o.WALSyncBytes = 1 << 20
	}
	if o.IdleCompactAfter == 0 {
		o.IdleCompactAfter = time.Second
	}
	o.Cold.DisableAutoCompact = true
}

// flushChunkBytes bounds one flusher chunk: the unit of work between
// rate-limit sleeps, and the longest a foreground Delete can be held at
// the flush gate.
const flushChunkBytes = 256 << 10

// rowMeta tracks one hot row's flush obligations.
type rowMeta struct {
	seg  int    // WAL segment holding the row's latest record
	ver  uint64 // bumped on every overwrite; flushes of stale versions abort
	vlen int
	// inFlight marks a row whose live queue entry was popped into a
	// flush batch that has not committed. An overwrite then supersedes
	// that batch entry, not a queue entry, so it must not count toward
	// staleQueued (the first overwrite clears the mark).
	inFlight bool
}

// flushItem is one FIFO flush candidate. Stale entries (the row was
// overwritten or deleted since) are skipped by the version check.
type flushItem struct {
	table, pkey, ckey string
	ver               uint64
}

// warmEntry is the sidecar record of one warmed row: a memory-resident
// copy of a row whose authoritative version lives in the cold tier.
// Warmed rows carry no WAL or flush obligations — they are dropped the
// instant the row is overwritten (the hot tier takes over) or deleted,
// and evicting one costs no I/O.
type warmEntry struct {
	vlen int
	ver  uint64
}

// warmRef is one eviction-queue entry; like flushItems, refs whose
// version no longer matches the sidecar are stale and skipped.
type warmRef struct {
	table, pkey, ckey string
	ver               uint64
}

// Store is one node's tiered engine. All methods are safe for
// concurrent use; the background flusher runs until Close.
type Store struct {
	dir  string
	opts Options

	// ioMu serializes cold-tier mutation and WAL retirement: flush
	// chunks, foreground deletes/drops, cold compaction, backup, and
	// consistent StoredBytes reads. Lock order: ioMu, then mu, then the
	// tiers' internal locks. It is never held while sleeping off the
	// rate limit.
	ioMu sync.Mutex

	mu   sync.Mutex
	hot  *memtable.Store
	warm *memtable.Store // read-only copies of the newest cold rows
	// wal makes the hot tier durable. It has no index — the hot memtable
	// IS the index — and is only ever replayed front to back on open;
	// segments are deleted from the front once every record in them is
	// superseded or durably flushed into the cold tier (pending, below).
	wal  *reclog.Log
	enc  []byte // scratch WAL record buffer
	cold *disklog.Store

	hotMeta map[string]map[string]*rowMeta // table\0pkey → ckey → meta
	// warmMeta mirrors the warm memtable's rows (same key scheme as
	// hotMeta); warmBytes is their resident total. warmQueue is the
	// eviction order, oldest data at the front; warmStale counts queue
	// entries whose row left the warm tier since enqueue (compacted
	// wholesale like the flush queue).
	warmMeta  map[string]map[string]warmEntry
	warmBytes int64
	warmQueue []warmRef
	warmStale int
	// shadow holds, for hot rows that also exist in the cold tier, the
	// cold bytes they hide — so StoredBytes counts each logical row once.
	shadow      map[string]map[string]int64
	shadowBytes int64
	// pending counts, per WAL segment, records whose effect is not yet
	// durable in the cold tier. A prefix of segments with zero pending
	// can be deleted.
	pending map[int]int
	// tombs lists WAL segments whose delete/drop records have been
	// applied to the cold tier but not yet fsynced there.
	tombs []int
	queue []flushItem
	// staleQueued counts queue entries whose row was overwritten or
	// deleted since enqueue. The flusher only trims the stale prefix, so
	// once stale entries dominate the queue it is compacted wholesale —
	// otherwise churn behind one long-lived under-budget row (which pins
	// the head) would grow the queue without bound.
	staleQueued int
	// draining is the flusher's hysteresis latch: set when hot bytes
	// exceed HotBytes, cleared once they fall to the HotBytes/2 low
	// water. Without it the flusher would drain any working set above
	// the low-water mark, halving the effective hot tier.
	draining bool
	ver      uint64

	werr   error
	closed bool
	lock   *dirLock // exclusive LOCK on dir: one live handle per directory
	stop   chan struct{}
	done   chan struct{}
	stopFn sync.Once

	flushNow chan struct{}

	// lastOp is the UnixNano of the last foreground operation — the
	// idle-detection clock of the maintenance scheduler.
	lastOp atomic.Int64

	hotHits         atomic.Int64
	coldReads       atomic.Int64
	flushedRows     atomic.Int64
	flushedBytes    atomic.Int64
	compactions     atomic.Int64
	idleCompactions atomic.Int64
	warmedRows      atomic.Int64
	warmedBytes     atomic.Int64
	warming         atomic.Int64 // gauge: 1 while open-time warm-up runs
	hotBytes        atomic.Int64 // gauge mirror of hot+warm resident bytes
}

// Open opens (or creates) the engine rooted at dir: the cold tier under
// dir/cold, the WAL under dir/wal. The WAL is replayed into the hot
// tier (torn tail truncated), so a store killed mid-flush reopens with
// every acknowledged write intact; unless Options.DisableWarm is set,
// the background goroutine then warms memory with the newest cold rows
// up to the HotBytes budget (TierCounters.Warming reads 1 until that
// finishes). The background flusher starts
// immediately — which is why the directory is locked exclusively: a
// second live handle would run a second flusher over the same files
// and corrupt them. On platforms with flock(2) the lock dies with the
// process, so a crash never leaves the directory unopenable; elsewhere
// a PID-stamped LOCK file is used and a stale one left by a crash must
// be removed by hand (the error says which). Open fails fast when the
// directory is already held.
func Open(dir string, opts Options) (*Store, error) {
	opts.normalize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tiered: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	cold, err := disklog.Open(filepath.Join(dir, "cold"), opts.Cold)
	if err != nil {
		lock.release()
		return nil, err
	}
	w, err := reclog.Open(filepath.Join(dir, "wal"), walPrefix, opts.WALSegmentBytes)
	if err != nil {
		cold.Close()
		lock.release()
		return nil, err
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		hot:      memtable.New(),
		warm:     memtable.New(),
		wal:      w,
		cold:     cold,
		lock:     lock,
		hotMeta:  make(map[string]map[string]*rowMeta),
		warmMeta: make(map[string]map[string]warmEntry),
		shadow:   make(map[string]map[string]int64),
		pending:  make(map[int]int),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		flushNow: make(chan struct{}, 1),
	}
	s.lastOp.Store(time.Now().UnixNano())
	// Rebuild the hot tier. Replayed deletes and drops are re-applied to
	// the cold tier too: a crash may have cut in after the WAL append
	// but before the cold tombstone.
	err = w.Scan(func(seg *reclog.Segment, _ int64, payload []byte) error {
		m, _, err := reclog.DecodeMutation(payload)
		if err != nil {
			return err
		}
		switch m.Op {
		case reclog.OpPut:
			// The scan reuses payload; the hot tier keeps the value.
			s.applyHotPut(seg.ID(), m.Table, m.PKey, m.CKey, append([]byte(nil), m.Value...))
		case reclog.OpDel:
			s.applyDelete(seg.ID(), m.Table, m.PKey, m.CKey)
		case reclog.OpDrop:
			s.applyDrop(seg.ID(), m.Table, m.PKey)
		}
		return nil
	})
	if err == nil {
		// Make the re-applied tombstones durable now, clearing their
		// truncation obligations.
		if err = cold.Flush(); err == nil {
			for _, seg := range s.tombs {
				s.pending[seg]--
			}
			s.tombs = nil
		}
	}
	if err != nil {
		w.Close()
		cold.Close()
		lock.release()
		return nil, fmt.Errorf("tiered: %w", err)
	}
	s.hotBytes.Store(s.hot.StoredBytes())
	if !opts.DisableWarm {
		s.warming.Store(1)
	}
	go s.flushLoop()
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

// Factory builds tiered engines, one directory per cluster node, under
// root.
func Factory(root string, opts Options) backend.Factory {
	return func(node int) (backend.Backend, error) {
		return Open(filepath.Join(root, backend.NodeDir(node)), opts)
	}
}

func partKey(table, pkey string) string { return table + "\x00" + pkey }

func (s *Store) mustOpenLocked() {
	if s.closed {
		panic("tiered: use after Close")
	}
}

// gauge refreshes the lock-free memory-resident-size mirror (hot rows
// plus warmed cold copies); callers hold mu.
func (s *Store) gauge() { s.hotBytes.Store(s.hot.StoredBytes() + s.warmBytes) }

// touch stamps the idle-detection clock; every foreground operation
// calls it so background maintenance knows when the store is quiet.
func (s *Store) touch() { s.lastOp.Store(time.Now().UnixNano()) }

// idleNow reports whether no foreground operation has arrived for the
// idle window.
func (s *Store) idleNow() bool {
	if s.opts.IdleCompactAfter < 0 {
		return false
	}
	return time.Since(time.Unix(0, s.lastOp.Load())) >= s.opts.IdleCompactAfter
}

// --- warm tier (memory-resident copies of cold rows) ------------------

// dropWarmLocked removes a row's warmed copy, if any; callers hold mu.
func (s *Store) dropWarmLocked(key, table, pkey, ckey string) {
	part := s.warmMeta[key]
	if part == nil {
		return
	}
	e, ok := part[ckey]
	if !ok {
		return
	}
	delete(part, ckey)
	if len(part) == 0 {
		delete(s.warmMeta, key)
	}
	s.warm.Delete(table, pkey, ckey)
	s.warmBytes -= int64(e.vlen + len(ckey))
	s.warmStale++
	if len(s.warmQueue) >= 64 && s.warmStale*2 >= len(s.warmQueue) {
		s.compactWarmQueue()
	}
	// Refresh the gauge here, not in the callers: deleting a row that
	// exists only as a warmed copy takes no hot-tier branch, and the
	// freed bytes must not linger in TierHotBytes.
	s.gauge()
}

// compactWarmQueue rewrites the eviction queue keeping live refs only;
// amortized O(1) per warm mutation, same policy as compactQueue.
func (s *Store) compactWarmQueue() {
	live := s.warmQueue[:0]
	for _, ref := range s.warmQueue {
		if part := s.warmMeta[partKey(ref.table, ref.pkey)]; part != nil {
			if e, ok := part[ref.ckey]; ok && e.ver == ref.ver {
				live = append(live, ref)
			}
		}
	}
	for i := len(live); i < len(s.warmQueue); i++ {
		s.warmQueue[i] = warmRef{}
	}
	s.warmQueue = live
	s.warmStale = 0
}

// warmInsertLocked installs a memory-resident copy of a row that is
// live in the cold tier, charged against the HotBytes budget. The row
// must not currently be owned by the hot tier; callers hold mu.
func (s *Store) warmInsertLocked(table, pkey, ckey string, val []byte) bool {
	key := partKey(table, pkey)
	if part := s.hotMeta[key]; part != nil {
		if _, owned := part[ckey]; owned {
			return false
		}
	}
	if part := s.warmMeta[key]; part != nil {
		if _, resident := part[ckey]; resident {
			return false
		}
	}
	n := int64(len(ckey) + len(val))
	if s.hot.StoredBytes()+s.warmBytes+n > s.opts.HotBytes {
		return false
	}
	s.ver++
	part := s.warmMeta[key]
	if part == nil {
		part = make(map[string]warmEntry)
		s.warmMeta[key] = part
	}
	part[ckey] = warmEntry{vlen: len(val), ver: s.ver}
	s.warm.Put(table, pkey, ckey, val)
	s.warmBytes += n
	s.warmQueue = append(s.warmQueue, warmRef{table: table, pkey: pkey, ckey: ckey, ver: s.ver})
	s.gauge()
	return true
}

// evictWarmLocked frees warmed copies (front of the queue first — the
// oldest data) until freed bytes reach want or the warm tier is empty;
// callers hold mu. Eviction is pure memory release: the rows stay
// durable in the cold tier.
func (s *Store) evictWarmLocked(want int64) int64 {
	var freed int64
	for freed < want && len(s.warmQueue) > 0 {
		ref := s.warmQueue[0]
		s.warmQueue[0] = warmRef{}
		s.warmQueue = s.warmQueue[1:]
		part := s.warmMeta[partKey(ref.table, ref.pkey)]
		if part == nil {
			s.warmStale--
			continue
		}
		e, ok := part[ref.ckey]
		if !ok || e.ver != ref.ver {
			s.warmStale--
			continue
		}
		delete(part, ref.ckey)
		if len(part) == 0 {
			delete(s.warmMeta, partKey(ref.table, ref.pkey))
		}
		s.warm.Delete(ref.table, ref.pkey, ref.ckey)
		n := int64(e.vlen + len(ref.ckey))
		s.warmBytes -= n
		freed += n
	}
	s.gauge()
	return freed
}

// --- mutation application (shared by foreground ops and WAL replay) ---

func (s *Store) applyHotPut(seg int, table, pkey, ckey string, value []byte) {
	key := partKey(table, pkey)
	// The hot tier takes ownership: a warmed copy of the old version
	// must not outlive this write (it would shadow the cold tier with
	// stale data once the row flushes).
	s.dropWarmLocked(key, table, pkey, ckey)
	part := s.hotMeta[key]
	if part == nil {
		part = make(map[string]*rowMeta)
		s.hotMeta[key] = part
	}
	s.ver++
	if meta := part[ckey]; meta != nil {
		s.pending[meta.seg]--
		if meta.inFlight {
			meta.inFlight = false
		} else {
			s.staleQueued++
		}
		meta.seg, meta.ver, meta.vlen = seg, s.ver, len(value)
	} else {
		part[ckey] = &rowMeta{seg: seg, ver: s.ver, vlen: len(value)}
		if cvlen, ok := s.cold.Stat(table, pkey, ckey); ok {
			s.addShadow(key, ckey, int64(cvlen+len(ckey)))
		}
	}
	s.pending[seg]++
	s.hot.Put(table, pkey, ckey, value)
	s.queue = append(s.queue, flushItem{table: table, pkey: pkey, ckey: ckey, ver: s.ver})
	if len(s.queue) >= 64 && s.staleQueued*2 >= len(s.queue) {
		s.compactQueue()
	}
	s.gauge()
}

// compactQueue rewrites the queue keeping only live entries (enqueue
// order preserved). Amortized O(1) per mutation: it runs only when at
// least half the queue is stale, and every stale entry was minted by
// one mutation.
func (s *Store) compactQueue() {
	live := s.queue[:0]
	for _, item := range s.queue {
		if part := s.hotMeta[partKey(item.table, item.pkey)]; part != nil {
			if meta := part[item.ckey]; meta != nil && meta.ver == item.ver {
				live = append(live, item)
			}
		}
	}
	for i := len(live); i < len(s.queue); i++ {
		s.queue[i] = flushItem{} // release the strings
	}
	s.queue = live
	s.staleQueued = 0
}

// applyDelete removes the row from both tiers. The caller holds mu (and
// ioMu on the foreground path; replay runs before the flusher starts).
func (s *Store) applyDelete(seg int, table, pkey, ckey string) bool {
	key := partKey(table, pkey)
	s.dropWarmLocked(key, table, pkey, ckey)
	existed := false
	if part := s.hotMeta[key]; part != nil {
		if meta := part[ckey]; meta != nil {
			s.pending[meta.seg]--
			s.staleQueued++
			delete(part, ckey)
			if len(part) == 0 {
				delete(s.hotMeta, key)
			}
			s.hot.Delete(table, pkey, ckey)
			s.dropShadow(key, ckey)
			s.gauge()
			existed = true
		}
	}
	if s.cold.Delete(table, pkey, ckey) {
		// The cold tombstone is not yet fsynced; the WAL record must
		// survive until it is.
		s.pending[seg]++
		s.tombs = append(s.tombs, seg)
		existed = true
	}
	return existed
}

func (s *Store) applyDrop(seg int, table, pkey string) {
	key := partKey(table, pkey)
	if wp := s.warmMeta[key]; wp != nil {
		for ckey, e := range wp {
			s.warmBytes -= int64(e.vlen + len(ckey))
		}
		s.warmStale += len(wp)
		delete(s.warmMeta, key)
		s.warm.DropPartition(table, pkey)
		if len(s.warmQueue) >= 64 && s.warmStale*2 >= len(s.warmQueue) {
			s.compactWarmQueue()
		}
	}
	if part := s.hotMeta[key]; part != nil {
		for _, meta := range part {
			s.pending[meta.seg]--
		}
		s.staleQueued += len(part)
		delete(s.hotMeta, key)
	}
	// Unconditional: the memtable may hold an empty partition object
	// whose rows were all flushed to cold (it would still surface in
	// PartitionKeys).
	s.hot.DropPartition(table, pkey)
	s.gauge()
	if shadows := s.shadow[key]; shadows != nil {
		for _, amt := range shadows {
			s.shadowBytes -= amt
		}
		delete(s.shadow, key)
	}
	if s.cold.HasPartition(table, pkey) {
		s.cold.DropPartition(table, pkey)
		s.pending[seg]++
		s.tombs = append(s.tombs, seg)
	}
}

func (s *Store) addShadow(key, ckey string, amt int64) {
	part := s.shadow[key]
	if part == nil {
		part = make(map[string]int64)
		s.shadow[key] = part
	}
	if old, ok := part[ckey]; ok {
		s.shadowBytes += amt - old
	} else {
		s.shadowBytes += amt
	}
	part[ckey] = amt
}

func (s *Store) dropShadow(key, ckey string) {
	part := s.shadow[key]
	if part == nil {
		return
	}
	if amt, ok := part[ckey]; ok {
		s.shadowBytes -= amt
		delete(part, ckey)
		if len(part) == 0 {
			delete(s.shadow, key)
		}
	}
}

// walAppend writes one record, batching fsyncs, and records any write
// error in the sticky werr (surfaced by Flush/Close, WAL semantics).
func (s *Store) walAppend(op reclog.Op, table, pkey, ckey string, value []byte) int {
	s.enc, _ = reclog.Mutation{Op: op, Table: table, PKey: pkey, CKey: ckey, Value: value}.AppendRecord(s.enc[:0])
	seg, _, err := s.wal.Append(s.enc)
	if err == nil && s.wal.Unsynced() >= s.opts.WALSyncBytes {
		err = s.wal.Sync()
	}
	if err != nil {
		s.werr = errors.Join(s.werr, fmt.Errorf("tiered: wal: %w", err))
	}
	return seg.ID()
}

// --- Backend interface ----------------------------------------------

// Put appends a WAL record and lands the row in the hot tier. The cold
// tier is not touched; the background flusher migrates the row later.
func (s *Store) Put(table, pkey, ckey string, value []byte) {
	s.touch()
	s.mu.Lock()
	s.mustOpenLocked()
	seg := s.walAppend(reclog.OpPut, table, pkey, ckey, value)
	s.applyHotPut(seg, table, pkey, ckey, value)
	over := s.hot.StoredBytes()+s.warmBytes > s.opts.HotBytes
	s.mu.Unlock()
	if over {
		select {
		case s.flushNow <- struct{}{}:
		default:
		}
	}
}

// Get reads memory-then-cold: hot rows and warmed copies are served
// without any disk access.
func (s *Store) Get(table, pkey, ckey string) ([]byte, bool) {
	v, ok, _ := s.GetTier(table, pkey, ckey)
	return v, ok
}

// GetTier is Get plus the per-call cold-row count the cluster's latency
// model charges (backend.Tiered).
func (s *Store) GetTier(table, pkey, ckey string) ([]byte, bool, int) {
	s.touch()
	s.mu.Lock()
	s.mustOpenLocked()
	if v, ok := s.hot.Get(table, pkey, ckey); ok {
		s.mu.Unlock()
		s.hotHits.Add(1)
		return v, true, 0
	}
	if v, ok := s.warm.Get(table, pkey, ckey); ok {
		s.mu.Unlock()
		s.hotHits.Add(1)
		return v, true, 0
	}
	s.mu.Unlock()
	v, ok := s.cold.Get(table, pkey, ckey)
	if ok {
		s.coldReads.Add(1)
		return v, true, 1
	}
	return v, false, 0
}

// MultiGet is the batch-read fast path: hot rows resolve under one lock
// acquisition, the misses go to the cold tier as one disklog batch.
func (s *Store) MultiGet(reqs []backend.KeyRead) [][]byte {
	out, _ := s.MultiGetTier(reqs)
	return out
}

// MultiGetTier is MultiGet plus the per-call cold-row count
// (backend.Tiered).
func (s *Store) MultiGetTier(reqs []backend.KeyRead) ([][]byte, int) {
	s.touch()
	out := make([][]byte, len(reqs))
	var missIdx []int
	s.mu.Lock()
	s.mustOpenLocked()
	hot := 0
	for i, r := range reqs {
		v, ok := s.hot.Get(r.Table, r.PKey, r.CKey)
		if !ok {
			v, ok = s.warm.Get(r.Table, r.PKey, r.CKey)
		}
		if ok {
			if v == nil {
				v = []byte{}
			}
			out[i] = v
			hot++
		} else {
			missIdx = append(missIdx, i)
		}
	}
	s.mu.Unlock()
	s.hotHits.Add(int64(hot))
	if len(missIdx) == 0 {
		return out, 0
	}
	miss := make([]backend.KeyRead, len(missIdx))
	for j, i := range missIdx {
		miss[j] = reqs[i]
	}
	vals := s.cold.MultiGet(miss)
	cold := 0
	for j, i := range missIdx {
		if vals[j] != nil {
			out[i] = vals[j]
			cold++
		}
	}
	s.coldReads.Add(int64(cold))
	return out, cold
}

// mergeRows merges two row slices sorted by clustering key, preferring
// a's row on equal keys.
func mergeRows(a, b []backend.Row) []backend.Row {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]backend.Row, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].CKey < b[j].CKey:
			out = append(out, a[i])
			i++
		case a[i].CKey > b[j].CKey:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// ScanPrefix merges the tiers' scans in clustering order; a row present
// in more than one place is served from the hottest copy.
func (s *Store) ScanPrefix(table, pkey, prefix string) []backend.Row {
	rows, _ := s.ScanPrefixTier(table, pkey, prefix)
	return rows
}

// ScanPrefixTier is ScanPrefix plus the per-call cold-row count
// (backend.Tiered). Rows the memory tiers shadow may be read from
// the cold log but are not served from it; only the rows the cold tier
// actually contributes count as cold, so hit ratios and the cold-read
// latency surcharge reflect the serving tier.
func (s *Store) ScanPrefixTier(table, pkey, prefix string) ([]backend.Row, int) {
	s.touch()
	s.mu.Lock()
	s.mustOpenLocked()
	memRows := mergeRows(s.hot.ScanPrefix(table, pkey, prefix), s.warm.ScanPrefix(table, pkey, prefix))
	s.mu.Unlock()
	coldRows := s.cold.ScanPrefix(table, pkey, prefix)
	s.hotHits.Add(int64(len(memRows)))
	out := mergeRows(memRows, coldRows)
	cold := len(out) - len(memRows)
	s.coldReads.Add(int64(cold))
	return out, cold
}

// Delete removes the row from both tiers. It holds the flush gate so a
// chunk mid-migration cannot resurrect the row in the cold tier.
func (s *Store) Delete(table, pkey, ckey string) bool {
	s.touch()
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustOpenLocked()
	hotHas := false
	if part := s.hotMeta[partKey(table, pkey)]; part != nil {
		_, hotHas = part[ckey]
	}
	if !hotHas {
		if _, coldHas := s.cold.Stat(table, pkey, ckey); !coldHas {
			return false
		}
	}
	seg := s.walAppend(reclog.OpDel, table, pkey, ckey, nil)
	return s.applyDelete(seg, table, pkey, ckey)
}

// DropPartition removes an entire partition from both tiers.
func (s *Store) DropPartition(table, pkey string) {
	s.touch()
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustOpenLocked()
	// Partition presence is object-level (an emptied partition still
	// lists in PartitionKeys, matching the memtable spec), so consult
	// the tiers, not the row sidecar.
	if !s.hot.HasPartition(table, pkey) && !s.cold.HasPartition(table, pkey) {
		return
	}
	seg := s.walAppend(reclog.OpDrop, table, pkey, "", nil)
	s.applyDrop(seg, table, pkey)
}

// PartitionKeys returns the union of both tiers' partition keys, sorted.
func (s *Store) PartitionKeys(table string) []string {
	s.mu.Lock()
	s.mustOpenLocked()
	hot := s.hot.PartitionKeys(table)
	s.mu.Unlock()
	cold := s.cold.PartitionKeys(table)
	if len(hot) == 0 {
		return cold
	}
	seen := make(map[string]struct{}, len(hot)+len(cold))
	out := make([]string, 0, len(hot)+len(cold))
	for _, pk := range hot {
		seen[pk] = struct{}{}
		out = append(out, pk)
	}
	for _, pk := range cold {
		if _, dup := seen[pk]; !dup {
			out = append(out, pk)
		}
	}
	sort.Strings(out)
	return out
}

// Tables returns the union of both tiers' table names, sorted.
func (s *Store) Tables() []string {
	s.mu.Lock()
	s.mustOpenLocked()
	hot := s.hot.Tables()
	s.mu.Unlock()
	cold := s.cold.Tables()
	seen := make(map[string]struct{}, len(hot)+len(cold))
	out := make([]string, 0, len(hot)+len(cold))
	for _, t := range hot {
		seen[t] = struct{}{}
		out = append(out, t)
	}
	for _, t := range cold {
		if _, dup := seen[t]; !dup {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// StoredBytes returns the logical live bytes across both tiers,
// counting rows resident in both exactly once. It waits out an
// in-flight flush chunk so the accounting is never torn.
func (s *Store) StoredBytes() int64 {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cold.StoredBytes() + s.hot.StoredBytes() - s.shadowBytes
}

// Flush makes every accepted write durable: the WAL is fsynced (hot
// rows survive a crash via replay) and the cold tier syncs its log.
// Any sticky write error surfaces here.
func (s *Store) Flush() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.Join(s.werr, errors.New("tiered: store closed"))
	}
	return s.flushDurableLocked()
}

// flushDurableLocked fsyncs both logs and clears satisfied tombstone
// obligations; callers hold ioMu and mu.
func (s *Store) flushDurableLocked() error {
	if err := s.wal.Sync(); err != nil {
		s.werr = errors.Join(s.werr, err)
	}
	if err := s.cold.Flush(); err != nil {
		s.werr = errors.Join(s.werr, err)
	} else {
		for _, seg := range s.tombs {
			s.pending[seg]--
		}
		s.tombs = nil
	}
	return s.werr
}

// Close stops the background flusher, fsyncs both logs, and releases
// every file. Hot rows are NOT drained to the cold tier: the WAL
// carries them to the next Open.
func (s *Store) Close() error {
	s.stopFlusher()
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.werr
	}
	err := s.flushDurableLocked()
	// A fully-drained store (every WAL record superseded or durably
	// cold) empties its log on a clean close: replaying those records
	// would only re-promote cold rows into the hot tier at the next
	// open, overriding the warm-up policy's newest-first choice.
	if err == nil && len(s.tombs) == 0 {
		clean := true
		for _, n := range s.pending {
			if n != 0 {
				clean = false
				break
			}
		}
		if clean {
			s.retireWAL()
			if terr := s.wal.TruncateActive(); terr != nil {
				err = errors.Join(err, terr)
				s.werr = err
			}
		}
	}
	s.wal.Close()
	if cerr := s.cold.Close(); cerr != nil {
		err = errors.Join(err, cerr)
		s.werr = err
	}
	s.lock.release()
	s.closed = true
	return err
}

// Kill simulates a crash (testing aid): background work stops where it
// is, files close without a final WAL fsync, and the store becomes
// unusable. The on-disk state is what a new process would find after
// this one died mid-flight; Open recovers from it.
func (s *Store) Kill() {
	s.stopFlusher()
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.wal.Close()
	s.cold.Close()
	s.lock.release()
}

func (s *Store) stopFlusher() {
	s.stopFn.Do(func() { close(s.stop) })
	<-s.done
}

// TierCounters reports the per-tier activity counters (lock-free).
func (s *Store) TierCounters() backend.TierCounters {
	return backend.TierCounters{
		HotHits:         s.hotHits.Load(),
		ColdReads:       s.coldReads.Load(),
		FlushedRows:     s.flushedRows.Load(),
		FlushedBytes:    s.flushedBytes.Load(),
		Compactions:     s.compactions.Load(),
		IdleCompactions: s.idleCompactions.Load(),
		WarmedRows:      s.warmedRows.Load(),
		WarmedBytes:     s.warmedBytes.Load(),
		HotBytes:        s.hotBytes.Load(),
		Warming:         s.warming.Load(),
	}
}

// backupCopyHook, when set, runs after the backup has snapshotted its
// state and released the store lock, before any file is copied — a
// testing seam proving that foreground reads proceed while a large
// backup streams.
var backupCopyHook func()

// Backup writes a consistent copy of the engine's durable state (cold
// segments and WAL) into dir, mirroring the on-disk layout so the copy
// opens as a normal tiered directory. The whole target is validated
// before anything is written, so a refused backup leaves the directory
// unchanged. Only the snapshot (fsync both logs, capture the WAL
// segment list) happens under the store lock; the bulk copy holds just
// the flush gate (ioMu), which freezes the cold tier and WAL retirement
// for the duration — foreground reads and puts keep flowing, deletes
// and background flushing wait. Writes accepted after the snapshot
// point are not part of the copy (they are a pure suffix of the WAL),
// so the backup is a consistent point-in-time state.
func (s *Store) Backup(dir string) error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("tiered: backup of closed store")
	}
	if err := s.flushDurableLocked(); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("tiered: backup: %w", err)
	}
	snap := s.wal.Snapshot()
	s.mu.Unlock()

	// Validate the whole target before writing anything.
	walDir := filepath.Join(dir, "wal")
	if dirty, err := reclog.HasSegments(walDir, walPrefix); err != nil {
		return err
	} else if dirty {
		return fmt.Errorf("tiered: backup target %s already holds WAL segments", walDir)
	}
	if hook := backupCopyHook; hook != nil {
		hook()
	}
	// cold.Backup re-validates its own target before copying.
	if err := s.cold.Backup(filepath.Join(dir, "cold")); err != nil {
		return err
	}
	if err := snap.CopyTo(walDir); err != nil {
		return fmt.Errorf("tiered: backup: %w", err)
	}
	return nil
}

// --- background maintenance ------------------------------------------

func (s *Store) flushLoop() {
	defer close(s.done)
	if !s.opts.DisableWarm {
		s.warmFromCold()
	}
	s.warming.Store(0)
	ticker := time.NewTicker(s.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		case <-s.flushNow:
		}
		s.maintain()
	}
}

// warmFromCold repopulates memory with the newest cold rows up to the
// HotBytes budget: the recency-skewed workloads the hot tier exists for
// hit the same rows right after a restart that they hit right before
// it, so the first post-reopen queries should not pay the cold tier's
// seek for each of them. The newest-first walk stops at the budget —
// old history is never replayed — and every insert re-validates the row
// under the store lock, so foreground writes, deletes and a concurrent
// Kill stay correct. Purely additive in-memory work: a crash at any
// point leaves the durable state untouched.
func (s *Store) warmFromCold() {
	type wrow struct {
		table, pkey, ckey string
		val               []byte
	}
	var rows []wrow
	s.mu.Lock()
	total := s.hot.StoredBytes() + s.warmBytes
	s.mu.Unlock()
	budget := s.opts.HotBytes
	err := s.cold.IterNewest(func(table, pkey, ckey string, value []byte) bool {
		select {
		case <-s.stop:
			return false
		default:
		}
		n := int64(len(ckey) + len(value))
		if total+n > budget {
			return false
		}
		total += n
		rows = append(rows, wrow{table: table, pkey: pkey, ckey: ckey, val: value})
		return true
	})
	if err != nil {
		return // cold read trouble: skip warm-up, the sticky error path owns it
	}
	// Insert oldest-first so the eviction queue's front holds the oldest
	// warmed data.
	for i := len(rows) - 1; i >= 0; i-- {
		select {
		case <-s.stop:
			return
		default:
		}
		r := rows[i]
		s.mu.Lock()
		if s.closed || s.werr != nil {
			s.mu.Unlock()
			return
		}
		// Skip rows the foreground rewrote or deleted since the walk; a
		// cold-tier check under mu orders the insert against deletes.
		if _, stillCold := s.cold.Stat(r.table, r.pkey, r.ckey); stillCold {
			if s.warmInsertLocked(r.table, r.pkey, r.ckey, r.val) {
				s.warmedRows.Add(1)
				s.warmedBytes.Add(int64(len(r.ckey) + len(r.val)))
			}
		}
		s.mu.Unlock()
	}
}

// maintain is the idle-aware scheduler. While foreground traffic is
// active it drains the hot tier down to half the budget in chunks
// throttled to CompactRate, exactly aggressive enough to keep the
// budget without starving foreground I/O. Once the store has been quiet
// for IdleCompactAfter it switches to full speed with a bigger goal:
// drain the hot tier completely (retiring the WAL) while re-homing the
// drained rows as warmed in-memory copies, and run the cold-tier
// compactions (small-segment merge, then full rewrite if worthwhile) —
// so write-heavy phases never pay compaction on the read path, and the
// disk work happens when nobody is waiting on the disk. The rate-limit
// sleep holds no locks.
func (s *Store) maintain() {
	idleWork := false
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		idle := s.idleNow()
		n := s.flushChunk(idle)
		if n == 0 {
			break
		}
		if idle {
			idleWork = true
			continue // full speed: no throttle between chunks
		}
		if s.opts.CompactRate > 0 {
			sleep := time.Duration(float64(n) / float64(s.opts.CompactRate) * float64(time.Second))
			select {
			case <-s.stop:
				return
			case <-time.After(sleep):
			}
		}
	}
	if idleWork {
		s.idleCompactions.Add(1)
	}
	s.maybeCompactCold(s.idleNow())
}

// flushChunk migrates up to flushChunkBytes of the oldest hot rows into
// the cold tier and returns the byte count moved (0 when nothing needs
// to move). In the normal (busy) mode it works only while the drain
// latch is engaged, relieving memory pressure cheapest-first: warmed
// copies are evicted before any hot row pays cold-tier I/O. In idle
// mode it ignores the latch and drains the hot tier completely, and the
// commit phase re-homes each migrated row as a warmed copy (budget
// permitting) so the data stays memory-served. The whole chunk —
// select, cold write, fsync, commit, WAL retirement — runs under the
// flush gate (ioMu), so deletes cannot interleave with a migration;
// foreground puts and reads only contend for mu during the brief select
// and commit phases.
func (s *Store) flushChunk(idle bool) int64 {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()

	type flushRow struct {
		flushItem
		seg int
		val []byte
	}
	var (
		batch []flushRow
		moved int64
	)
	s.mu.Lock()
	if s.closed || s.werr != nil {
		s.mu.Unlock()
		return 0
	}
	// Drop the stale queue prefix (rows overwritten or deleted since
	// they were enqueued) so churn below the budget cannot grow the
	// queue without bound.
	for len(s.queue) > 0 {
		item := s.queue[0]
		part := s.hotMeta[partKey(item.table, item.pkey)]
		if part != nil {
			if meta := part[item.ckey]; meta != nil && meta.ver == item.ver {
				break
			}
		}
		s.queue = s.queue[1:]
		s.staleQueued--
	}
	total := s.hot.StoredBytes() + s.warmBytes
	// Memory pressure is relieved cheapest-first: warmed copies are
	// dropped (no I/O) down to the budget itself — eviction needs no
	// hysteresis, so warmth above the low-water mark is never wasted.
	// Only if the hot rows alone still exceed the budget does the drain
	// latch engage and flushing pay cold-tier I/O.
	if total > s.opts.HotBytes && s.warmBytes > 0 {
		total -= s.evictWarmLocked(total - s.opts.HotBytes)
	}
	if total > s.opts.HotBytes {
		s.draining = true
	}
	lowWater := s.opts.HotBytes / 2
	excess := total - lowWater
	if excess <= 0 {
		s.draining = false
	}
	drain := s.draining
	if idle {
		// Full drain: every hot row becomes durable in the cold tier (the
		// WAL can then retire); the commit below keeps it memory-resident.
		excess = s.hot.StoredBytes()
		drain = excess > 0
	}
	for drain && excess > 0 && moved < flushChunkBytes && len(s.queue) > 0 {
		item := s.queue[0]
		s.queue = s.queue[1:]
		part := s.hotMeta[partKey(item.table, item.pkey)]
		if part == nil {
			s.staleQueued--
			continue
		}
		meta := part[item.ckey]
		if meta == nil || meta.ver != item.ver {
			s.staleQueued--
			continue // superseded or deleted; a fresher queue entry exists if needed
		}
		v, ok := s.hot.Get(item.table, item.pkey, item.ckey)
		if !ok {
			continue
		}
		n := int64(len(item.ckey) + len(v))
		meta.inFlight = true
		batch = append(batch, flushRow{flushItem: item, seg: meta.seg, val: v})
		moved += n
		excess -= n
	}
	tombsOnly := len(batch) == 0 && len(s.tombs) > 0
	s.mu.Unlock()

	if len(batch) == 0 && !tombsOnly {
		s.retireWALLocked()
		return 0
	}

	// Write + fsync the cold tier outside mu: foreground reads and puts
	// proceed while the disk works.
	for _, row := range batch {
		s.cold.Put(row.table, row.pkey, row.ckey, row.val)
	}
	if err := s.cold.Flush(); err != nil {
		s.mu.Lock()
		s.werr = errors.Join(s.werr, err)
		s.mu.Unlock()
		return 0
	}

	// Commit: drop migrated rows from the hot tier and retire satisfied
	// WAL obligations.
	s.mu.Lock()
	for _, row := range batch {
		key := partKey(row.table, row.pkey)
		part := s.hotMeta[key]
		var meta *rowMeta
		if part != nil {
			meta = part[row.ckey]
		}
		if meta == nil {
			// Unreachable while the flush gate excludes deletes; kept as
			// a safety net — the cold copy is stale but harmless only if
			// removed.
			s.cold.Delete(row.table, row.pkey, row.ckey)
			continue
		}
		if meta.ver != row.ver {
			// Overwritten mid-write: the hot tier still owns the row and
			// now shadows the cold copy we just created.
			s.addShadow(key, row.ckey, int64(len(row.ckey)+len(row.val)))
			continue
		}
		s.pending[meta.seg]--
		delete(part, row.ckey)
		if len(part) == 0 {
			delete(s.hotMeta, key)
		}
		s.hot.Delete(row.table, row.pkey, row.ckey)
		s.dropShadow(key, row.ckey)
		s.flushedRows.Add(1)
		s.flushedBytes.Add(int64(len(row.val)))
		if idle {
			// Idle drain keeps the data memory-served: the row is durable
			// cold now, its in-memory copy just changed tier.
			if s.warmInsertLocked(row.table, row.pkey, row.ckey, row.val) {
				s.warmedRows.Add(1)
				s.warmedBytes.Add(int64(len(row.ckey) + len(row.val)))
			}
		}
	}
	// The cold fsync above covered every tombstone applied before it.
	for _, seg := range s.tombs {
		s.pending[seg]--
	}
	s.tombs = nil
	s.gauge()
	s.retireWAL()
	s.mu.Unlock()
	return moved
}

// retireWAL deletes the longest prefix of WAL segments with no
// outstanding obligations; the caller holds ioMu and mu.
func (s *Store) retireWAL() {
	for seg, n := range s.pending {
		if n == 0 {
			delete(s.pending, seg)
		}
	}
	dropUpTo := s.wal.Active().ID() - 1
	for seg := range s.pending {
		if seg-1 < dropUpTo {
			dropUpTo = seg - 1
		}
	}
	if dropUpTo < 1 || s.wal.Len() <= 1 || s.wal.Segments()[0].ID() > dropUpTo {
		return // nothing would actually drop
	}
	// A segment's pending count can reach zero because its records were
	// superseded by records in a newer segment whose bytes are not yet
	// fsynced. Deleting the old segment then would leave the row's only
	// surviving record in the page cache — a power cut loses it entirely,
	// even if an earlier Flush had made the old version durable. Sync the
	// WAL first; retirement is infrequent and the sync is a no-op when
	// the batch fsync already ran.
	if err := s.wal.Sync(); err != nil {
		s.werr = errors.Join(s.werr, err)
		return
	}
	if err := s.wal.DropThrough(dropUpTo); err != nil {
		s.werr = errors.Join(s.werr, err)
	}
}

// retireWALLocked is retireWAL for callers holding only ioMu.
func (s *Store) retireWALLocked() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.retireWAL()
}

// maybeCompactCold runs the cold tier's compactions, leveled by cost.
// The cheap newest-level merge (coalescing the small segments that
// rotation and trickle flushes leave at the tail) runs in any mode —
// its work is proportional to the new data. The full-log rewrite is
// gated on an idle window: while foreground traffic is active it runs
// only as an emergency (the log is at least three quarters garbage), so
// write-heavy scenarios stop paying whole-log compaction on the read
// path. Both hold the flush gate (deletes and flushes wait); hot-tier
// reads are untouched.
func (s *Store) maybeCompactCold(idle bool) {
	s.mu.Lock()
	if s.closed || s.werr != nil {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	record := func(err error) {
		if err != nil {
			s.mu.Lock()
			s.werr = errors.Join(s.werr, err)
			s.mu.Unlock()
			return
		}
		s.compactions.Add(1)
		if idle {
			s.idleCompactions.Add(1)
		}
	}
	s.ioMu.Lock()
	n, err := s.cold.MergeSmall(0, 4)
	s.ioMu.Unlock()
	if err != nil || n > 0 {
		record(err)
		if err != nil {
			return
		}
	}
	dead := s.cold.DeadBytes()
	floor := s.opts.Cold.CompactMinDead
	if floor <= 0 {
		floor = disklog.DefaultCompactMinDead
	}
	live := s.cold.StoredBytes()
	if dead < floor || dead <= live {
		return
	}
	if !idle && dead <= 3*live {
		return // defer the full rewrite to an idle window
	}
	s.ioMu.Lock()
	err = s.cold.Compact()
	s.ioMu.Unlock()
	record(err)
}

// String describes the engine state (fmt.Stringer, for inspection).
func (s *Store) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("tiered(%s: %dB hot, %d wal segments, cold %s)",
		s.dir, s.hot.StoredBytes(), s.wal.Len(), s.cold)
}

var _ backend.Backend = (*Store)(nil)
var _ backend.Tiered = (*Store)(nil)
var _ backend.Backuper = (*Store)(nil)
