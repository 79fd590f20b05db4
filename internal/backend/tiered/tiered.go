// Package tiered is the hot/cold storage engine: a disklog under
// dir/cold (the cold tier) holds every row durably, and memory keeps a
// bounded copy of the most recently written rows (the hot tier), so the
// working set the paper calls hot — the newest timespans and deltas,
// which most queries touch — is served without disk I/O while history
// stays durable and cheap on disk.
//
// Writes go through: Put, Delete and DropPartition apply to the cold
// log first and then update the copy, so memory never holds the only
// copy of a row and durability is exactly disklog's — Flush and Close
// fsync it, a torn tail is truncated on open, the cold log runs its own
// triggered compaction, and its directory lock admits one live handle.
// The copy is bounded by Options.HotBytes and evicts first in, first
// out: the oldest written rows leave first, and dropping one costs no
// I/O. Point reads (Get, MultiGet) check memory, then the cold log.
// Prefix scans take the matching keys and their order from the cold
// log's index, which is authoritative while the copy may hold only part
// of a partition, and read them like MultiGet.
//
// On open, unless Options.DisableWarm is set, a background goroutine
// fills the copy with the newest cold rows (newest-first, up to
// HotBytes), so a process restart does not demote the recency-skewed
// working set to cold-read latency.
//
// Directories written by earlier versions of the engine keep recent
// writes in a write-ahead log under dir/wal; Open carries it into the
// cold log and removes it (see migrateWAL).
//
// The engine implements backend.Backend, backend.Tiered (per-tier read
// counters surfaced through kvstore.Metrics) and backend.Backuper.
package tiered

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"hgs/internal/backend"
	"hgs/internal/backend/disklog"
	"hgs/internal/reclog"
)

// Options tune the engine. Zero values take the defaults.
type Options struct {
	// HotBytes is the budget of the in-memory copy: once its rows
	// (clustering key plus value bytes) exceed it, the oldest written
	// are evicted (default 32 MiB).
	HotBytes int64
	// DisableWarm turns off warm-up: by default, opening a directory
	// that already holds data fills memory with the newest cold rows
	// (up to HotBytes) in the background, so the first queries after a
	// restart are served like the process never died.
	DisableWarm bool
	// Cold tunes the disklog that holds every row durably.
	Cold disklog.Options
}

func (o *Options) normalize() {
	if o.HotBytes <= 0 {
		o.HotBytes = 32 << 20
	}
}

// memRow is one row of the in-memory copy. ver identifies the copy in
// the eviction queue: a queue entry whose version no longer matches is
// stale (the row was rewritten, deleted or evicted since).
type memRow struct {
	val []byte
	ver uint64
}

// memRef is one eviction-queue entry, oldest write at the front; key is
// the row's partKey.
type memRef struct {
	key, ckey string
	ver       uint64
}

// Store is one node's tiered engine. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options
	cold *disklog.Store

	// wmu serializes writes, so the cold log and the copy see them in
	// the same order, and orders warm-up inserts against them. Lock
	// order: wmu, then mu.
	wmu    sync.Mutex
	writes uint64 // writes accepted since open (guarded by wmu)

	mu       sync.Mutex
	rows     map[string]map[string]memRow // table\0pkey → ckey → copy
	memBytes int64
	queue    []memRef
	stale    int // queue entries whose copy is gone or rewritten
	ver      uint64
	closed   bool

	stop   chan struct{}
	done   chan struct{}
	stopFn sync.Once

	hotHits      atomic.Int64
	coldReads    atomic.Int64
	flushedBytes atomic.Int64
	warmedRows   atomic.Int64
	warmedBytes  atomic.Int64
	warming      atomic.Int64 // gauge: 1 while open-time warm-up runs
	hotBytes     atomic.Int64 // gauge mirror of memBytes
}

// Open opens (or creates) the engine rooted at dir. The cold log is
// opened (and locked) first; a write-ahead log left by an earlier
// version of the engine is then carried into it. Unless
// Options.DisableWarm is set, a background goroutine warms memory with
// the newest cold rows up to the HotBytes budget (TierCounters.Warming
// reads 1 until that finishes).
func Open(dir string, opts Options) (*Store, error) {
	opts.normalize()
	cold, err := disklog.Open(filepath.Join(dir, "cold"), opts.Cold)
	if err != nil {
		return nil, err
	}
	if err := migrateWAL(dir, cold); err != nil {
		cold.Close()
		return nil, fmt.Errorf("tiered: %w", err)
	}
	s := &Store{
		dir:  dir,
		opts: opts,
		cold: cold,
		rows: make(map[string]map[string]memRow),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if opts.DisableWarm {
		close(s.done)
	} else {
		s.warming.Store(1)
		go s.warmUp()
	}
	return s, nil
}

// migrateWAL carries the write-ahead log that earlier versions of the
// engine kept under dir/wal into the cold log: the records are replayed
// in order (a torn tail is truncated, as the old engine did), the cold
// log is flushed, and only then is wal/ removed and the directory
// fsynced. A crash before the removal replays the log again on the next
// open; that is harmless, because the last write of each row decides
// its state either way.
func migrateWAL(dir string, cold *disklog.Store) error {
	walDir := filepath.Join(dir, "wal")
	if _, err := os.Stat(walDir); errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	wal, err := reclog.Open(walDir, "wal", math.MaxInt64)
	if err != nil {
		return err
	}
	err = wal.Scan(func(_ *reclog.Segment, _ int64, payload []byte) error {
		m, _, err := reclog.DecodeMutation(payload)
		if err != nil {
			return err
		}
		switch m.Op {
		case reclog.OpPut:
			cold.Put(m.Table, m.PKey, m.CKey, m.Value)
		case reclog.OpDel:
			cold.Delete(m.Table, m.PKey, m.CKey)
		case reclog.OpDrop:
			cold.DropPartition(m.Table, m.PKey)
		}
		return nil
	})
	wal.Close()
	if err != nil {
		return err
	}
	if err := cold.Flush(); err != nil {
		return err
	}
	if err := os.RemoveAll(walDir); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
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

// --- the in-memory copy (callers hold mu) ------------------------------

// forgetLocked drops the row's copy, if any.
func (s *Store) forgetLocked(key, ckey string) {
	part := s.rows[key]
	r, ok := part[ckey]
	if !ok {
		return
	}
	delete(part, ckey)
	if len(part) == 0 {
		delete(s.rows, key)
	}
	s.memBytes -= int64(len(ckey) + len(r.val))
	s.stale++
}

// insertLocked installs a copy of the row at the back of the eviction
// queue. The caller has dropped any older copy and checked the budget.
func (s *Store) insertLocked(key, ckey string, val []byte) {
	part := s.rows[key]
	if part == nil {
		part = make(map[string]memRow)
		s.rows[key] = part
	}
	s.ver++
	part[ckey] = memRow{val: val, ver: s.ver}
	s.memBytes += int64(len(ckey) + len(val))
	s.queue = append(s.queue, memRef{key: key, ckey: ckey, ver: s.ver})
}

// evictLocked pops the eviction queue until the copy fits the budget,
// then compacts the queue once stale entries dominate it (amortized
// O(1) per write: every stale entry was minted by one write), so
// overwrite churn under the budget cannot grow it without bound.
func (s *Store) evictLocked() {
	for s.memBytes > s.opts.HotBytes && len(s.queue) > 0 {
		ref := s.queue[0]
		s.queue[0] = memRef{}
		s.queue = s.queue[1:]
		if r, ok := s.rows[ref.key][ref.ckey]; ok && r.ver == ref.ver {
			s.forgetLocked(ref.key, ref.ckey)
		}
		s.stale--
	}
	if len(s.queue) >= 64 && s.stale*2 >= len(s.queue) {
		live := s.queue[:0]
		for _, ref := range s.queue {
			if r, ok := s.rows[ref.key][ref.ckey]; ok && r.ver == ref.ver {
				live = append(live, ref)
			}
		}
		clear(s.queue[len(live):])
		s.queue = live
		s.stale = 0
	}
	s.hotBytes.Store(s.memBytes)
}

// --- Backend interface ----------------------------------------------

// Put writes the row to the cold log, then makes it the newest entry of
// the in-memory copy (rows larger than the whole budget are not copied).
func (s *Store) Put(table, pkey, ckey string, value []byte) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.cold.Put(table, pkey, ckey, value)
	s.writes++
	s.flushedBytes.Add(int64(len(value)))
	s.mu.Lock()
	defer s.mu.Unlock()
	key := partKey(table, pkey)
	s.forgetLocked(key, ckey)
	if int64(len(ckey)+len(value)) <= s.opts.HotBytes {
		s.insertLocked(key, ckey, value)
	}
	s.evictLocked()
}

// Get reads memory, then the cold log.
func (s *Store) Get(table, pkey, ckey string) ([]byte, bool) {
	s.mu.Lock()
	s.mustOpenLocked()
	r, ok := s.rows[partKey(table, pkey)][ckey]
	s.mu.Unlock()
	if ok {
		s.hotHits.Add(1)
		return append([]byte{}, r.val...), true
	}
	v, ok := s.cold.Get(table, pkey, ckey)
	if ok {
		s.coldReads.Add(1)
	}
	return v, ok
}

// MultiGet is the batch-read fast path: memory hits resolve under one
// lock acquisition, the misses go to the cold log as one disklog batch.
func (s *Store) MultiGet(reqs []backend.KeyRead) [][]byte {
	out := make([][]byte, len(reqs))
	var missIdx []int
	s.mu.Lock()
	s.mustOpenLocked()
	for i, r := range reqs {
		if row, ok := s.rows[partKey(r.Table, r.PKey)][r.CKey]; ok {
			out[i] = append([]byte{}, row.val...)
		} else {
			missIdx = append(missIdx, i)
		}
	}
	s.mu.Unlock()
	s.hotHits.Add(int64(len(reqs) - len(missIdx)))
	if len(missIdx) == 0 {
		return out
	}
	miss := make([]backend.KeyRead, len(missIdx))
	for j, i := range missIdx {
		miss[j] = reqs[i]
	}
	cold := 0
	for j, v := range s.cold.MultiGet(miss) {
		if v != nil {
			out[missIdx[j]] = v
			cold++
		}
	}
	s.coldReads.Add(int64(cold))
	return out
}

// ScanPrefix returns the rows the cold log's index lists, in its order:
// the index is authoritative while the copy may hold only part of the
// partition, but rows resident in memory are served from there and only
// the rest are read from disk.
func (s *Store) ScanPrefix(table, pkey, prefix string) []backend.Row {
	ckeys := s.cold.ScanKeys(table, pkey, prefix)
	if len(ckeys) == 0 {
		return nil
	}
	rows := make([]backend.Row, len(ckeys))
	var miss []backend.KeyRead
	s.mu.Lock()
	s.mustOpenLocked()
	part := s.rows[partKey(table, pkey)]
	for i, ckey := range ckeys {
		rows[i].CKey = ckey
		if r, ok := part[ckey]; ok {
			rows[i].Value = append([]byte{}, r.val...) // non-nil even when empty
		} else {
			miss = append(miss, backend.KeyRead{Table: table, PKey: pkey, CKey: ckey})
		}
	}
	s.mu.Unlock()
	s.hotHits.Add(int64(len(ckeys) - len(miss)))
	if len(miss) == 0 {
		return rows
	}
	vals := s.cold.MultiGet(miss)
	out := rows[:0]
	cold := 0
	for _, r := range rows {
		if r.Value == nil {
			r.Value, vals = vals[0], vals[1:]
			if r.Value == nil {
				continue // deleted since ScanKeys
			}
			cold++
		}
		out = append(out, r)
	}
	s.coldReads.Add(int64(cold))
	return out
}

// Delete removes the row from the cold log, then from memory.
func (s *Store) Delete(table, pkey, ckey string) bool {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	existed := s.cold.Delete(table, pkey, ckey)
	s.writes++
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forgetLocked(partKey(table, pkey), ckey)
	s.evictLocked()
	return existed
}

// DropPartition removes an entire partition from the cold log, then
// from memory.
func (s *Store) DropPartition(table, pkey string) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.cold.DropPartition(table, pkey)
	s.writes++
	s.mu.Lock()
	defer s.mu.Unlock()
	key := partKey(table, pkey)
	part := s.rows[key]
	for ckey, r := range part {
		s.memBytes -= int64(len(ckey) + len(r.val))
	}
	s.stale += len(part)
	delete(s.rows, key)
	s.evictLocked()
}

// PartitionKeys returns the cold log's sorted partition keys.
func (s *Store) PartitionKeys(table string) []string { return s.cold.PartitionKeys(table) }

// Tables returns the cold log's sorted table names.
func (s *Store) Tables() []string { return s.cold.Tables() }

// StoredBytes returns the cold log's logical live bytes; the in-memory
// copy duplicates some of them and is not counted.
func (s *Store) StoredBytes() int64 { return s.cold.StoredBytes() }

// Flush fsyncs the cold log, which makes every accepted write durable,
// and reports any sticky write error.
func (s *Store) Flush() error { return s.cold.Flush() }

// Close stops the warm-up, then flushes and closes the cold log.
func (s *Store) Close() error {
	s.stopWarmUp()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.cold.Close()
}

// Kill simulates a crash (testing aid): the warm-up stops where it is,
// the cold log's files close without a final fsync, and the store
// becomes unusable. Open recovers from what is left on disk.
func (s *Store) Kill() {
	s.stopWarmUp()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cold.Kill()
}

func (s *Store) stopWarmUp() {
	s.stopFn.Do(func() { close(s.stop) })
	<-s.done
}

// TierCounters reports the per-tier activity counters (lock-free).
// FlushedBytes counts value bytes written through to the cold log;
// Compactions counts the cold log's compactions.
func (s *Store) TierCounters() backend.TierCounters {
	return backend.TierCounters{
		HotHits:      s.hotHits.Load(),
		ColdReads:    s.coldReads.Load(),
		FlushedBytes: s.flushedBytes.Load(),
		Compactions:  s.cold.Compactions(),
		WarmedRows:   s.warmedRows.Load(),
		WarmedBytes:  s.warmedBytes.Load(),
		HotBytes:     s.hotBytes.Load(),
		Warming:      s.warming.Load(),
	}
}

// Backup writes a consistent copy of the cold log into dir/cold, so the
// copy opens as a normal tiered directory; the cold log snapshots under
// its lock and copies outside it. A target holding a write-ahead log is
// refused before anything is written: opening the copy would replay
// that log over it.
func (s *Store) Backup(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, "wal")); err == nil {
		return fmt.Errorf("tiered: backup target %s already holds a write-ahead log", dir)
	}
	return s.cold.Backup(filepath.Join(dir, "cold"))
}

// --- warm-up --------------------------------------------------------

// warmUp fills memory with the newest cold rows up to the HotBytes
// budget: the recency-skewed workloads the hot tier exists for hit the
// same rows right after a restart that they hit right before it. The
// newest-first walk stops at the budget — old history is never read —
// and the rows go in oldest-first, so the eviction queue's front holds
// the oldest data. A row already in memory was written since open and
// is newer than the walk's copy, so it is kept; if any write landed
// after the walk started, each row is read again under the write lock.
// Purely additive in-memory work: a crash at any point leaves the
// durable state untouched.
func (s *Store) warmUp() {
	defer close(s.done)
	defer s.warming.Store(0)
	type wrow struct {
		table, pkey, ckey string
		val               []byte
	}
	var rows []wrow
	s.wmu.Lock()
	since := s.writes
	s.wmu.Unlock()
	s.mu.Lock()
	total := s.memBytes
	s.mu.Unlock()
	err := s.cold.IterNewest(func(table, pkey, ckey string, value []byte) bool {
		select {
		case <-s.stop:
			return false
		default:
		}
		n := int64(len(ckey) + len(value))
		if total+n > s.opts.HotBytes {
			return false
		}
		total += n
		rows = append(rows, wrow{table: table, pkey: pkey, ckey: ckey, val: value})
		return true
	})
	if err != nil {
		return // cold read trouble: the sticky error surfaces at Flush
	}
	for i := len(rows) - 1; i >= 0; i-- {
		select {
		case <-s.stop:
			return
		default:
		}
		r := rows[i]
		s.wmu.Lock()
		ok := true
		if s.writes != since {
			r.val, ok = s.cold.Get(r.table, r.pkey, r.ckey)
		}
		s.mu.Lock()
		n := int64(len(r.ckey) + len(r.val))
		key := partKey(r.table, r.pkey)
		_, resident := s.rows[key][r.ckey]
		if ok && !resident && s.memBytes+n <= s.opts.HotBytes {
			s.insertLocked(key, r.ckey, r.val)
			s.hotBytes.Store(s.memBytes)
			s.warmedRows.Add(1)
			s.warmedBytes.Add(n)
		}
		s.mu.Unlock()
		s.wmu.Unlock()
	}
}

// String describes the engine state (fmt.Stringer, for inspection).
func (s *Store) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("tiered(%s: %dB in memory, cold %s)", s.dir, s.memBytes, s.cold)
}

var _ backend.Backend = (*Store)(nil)
var _ backend.Tiered = (*Store)(nil)
var _ backend.Backuper = (*Store)(nil)
