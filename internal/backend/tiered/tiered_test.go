package tiered

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hgs/internal/backend"
)

// fastOptions makes background flushing aggressive so tests exercise
// tier migration within milliseconds.
func fastOptions() Options {
	return Options{
		HotBytes:      4 << 10,
		CompactRate:   -1, // unlimited: tests should not sleep
		FlushInterval: time.Millisecond,
	}
}

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func val(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 64) }

func TestHotReadsServeWithoutColdReads(t *testing.T) {
	// A hot tier large enough for the whole working set: every read is
	// a hot hit and the cold tier is never consulted for a row.
	s := open(t, t.TempDir(), Options{HotBytes: 1 << 30, FlushInterval: time.Millisecond})
	defer s.Close()
	for i := 0; i < 50; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%03d", i), val(i))
	}
	for i := 0; i < 50; i++ {
		v, ok := s.Get("deltas", "p0", fmt.Sprintf("c%03d", i))
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("row %d wrong", i)
		}
	}
	tc := s.TierCounters()
	if tc.HotHits != 50 {
		t.Fatalf("hot hits = %d, want 50", tc.HotHits)
	}
	if tc.ColdReads != 0 {
		t.Fatalf("cold reads = %d, want 0 (all-hot working set)", tc.ColdReads)
	}
	if tc.HotBytes == 0 {
		t.Fatal("hot bytes gauge empty with resident rows")
	}
}

func TestBackgroundFlushMigratesToCold(t *testing.T) {
	s := open(t, t.TempDir(), fastOptions())
	defer s.Close()
	const n = 400
	for i := 0; i < n; i++ {
		s.Put("deltas", fmt.Sprintf("p%02d", i%4), fmt.Sprintf("c%04d", i), val(i))
	}
	waitFor(t, "hot tier to drain to the low-water mark", func() bool {
		return s.TierCounters().HotBytes <= 4<<10/2
	})
	tc := s.TierCounters()
	if tc.FlushedRows == 0 || tc.FlushedBytes == 0 {
		t.Fatalf("no flush activity: %+v", tc)
	}
	// Every row is still readable; old rows come from the cold tier.
	for i := 0; i < n; i++ {
		v, ok := s.Get("deltas", fmt.Sprintf("p%02d", i%4), fmt.Sprintf("c%04d", i))
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("row %d lost after flush", i)
		}
	}
	if s.TierCounters().ColdReads == 0 {
		t.Fatal("expected cold reads for flushed rows")
	}
	// Scans merge the tiers in clustering order.
	rows := s.ScanPrefix("deltas", "p00", "")
	if len(rows) != n/4 {
		t.Fatalf("scan returned %d rows, want %d", len(rows), n/4)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].CKey >= rows[i].CKey {
			t.Fatal("merged scan out of order")
		}
	}
}

func TestWALSegmentsRetireAfterFlush(t *testing.T) {
	opts := fastOptions()
	opts.WALSegmentBytes = 1 << 10
	dir := t.TempDir()
	s := open(t, dir, opts)
	defer s.Close()
	for i := 0; i < 300; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%04d", i), val(i))
	}
	// ~27 segments are written; all but the handful pinned by still-hot
	// rows (the low-water residue) plus the active segment must retire.
	waitFor(t, "WAL retirement", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.wal.Len() <= 6
	})
}

func TestRetireWALSyncsSupersedingRecords(t *testing.T) {
	// A segment's pending count can reach zero because every record in
	// it was superseded by records in a newer segment. If that newer
	// segment's bytes are still only in the page cache when the old one
	// is deleted, a power cut loses the row entirely — so retirement
	// must fsync the WAL before dropping segments.
	opts := Options{
		HotBytes:        1 << 30,   // nothing migrates: retirement is purely by supersession
		FlushInterval:   time.Hour, // retirement runs only when driven below
		WALSegmentBytes: 512,
		WALSyncBytes:    1 << 30, // the batch fsync never fires on its own
	}
	s := open(t, t.TempDir(), opts)
	defer s.Close()
	// Overwrite one row until the WAL rotates several times: every
	// record outside the active segment is superseded by one inside it,
	// and the active segment's tail records are unsynced.
	for i := 0; i < 40; i++ {
		s.Put("deltas", "p0", "c0", val(i))
	}
	s.mu.Lock()
	segs, unsynced := s.wal.Len(), s.wal.Unsynced()
	s.mu.Unlock()
	if segs < 2 || unsynced == 0 {
		t.Fatalf("precondition not reached: %d segments, %d unsynced bytes", segs, unsynced)
	}
	s.flushChunk(false) // empty batch: runs WAL retirement
	s.mu.Lock()
	segs, unsynced = s.wal.Len(), s.wal.Unsynced()
	s.mu.Unlock()
	if segs != 1 {
		t.Fatalf("superseded segments did not retire: %d remain", segs)
	}
	if unsynced != 0 {
		t.Fatalf("WAL segments retired with %d unsynced bytes outstanding", unsynced)
	}
}

func TestFlushQueueBoundedUnderBudgetChurn(t *testing.T) {
	// The flusher only trims the queue's stale prefix, and a long-lived
	// row below the low-water mark pins the head forever. Overwrite
	// churn behind it must still be compacted away, or the queue grows
	// by one entry per Put for the life of the store.
	s := open(t, t.TempDir(), Options{HotBytes: 1 << 30, FlushInterval: time.Hour})
	defer s.Close()
	s.Put("deltas", "p0", "pinned", val(0))
	for i := 0; i < 10000; i++ {
		s.Put("deltas", "p0", "churn", val(i%251))
	}
	s.mu.Lock()
	qlen := len(s.queue)
	s.mu.Unlock()
	// Compaction triggers once stale entries reach half of a 64+ entry
	// queue, so steady state stays under ~64 for two live rows.
	if qlen > 100 {
		t.Fatalf("flush queue holds %d entries for 2 live rows", qlen)
	}
}

func TestUnderBudgetWorkingSetStaysHot(t *testing.T) {
	// Draining is latched by exceeding the budget, not by the low-water
	// mark alone: a working set between HotBytes/2 and HotBytes must
	// stay resident, or the effective hot tier is half the configured
	// budget and reads pay cold-tier latency for no reason.
	s := open(t, t.TempDir(), Options{HotBytes: 64 << 10, CompactRate: -1, FlushInterval: time.Millisecond})
	defer s.Close()
	for i := 0; i < 600; i++ { // ~41 KB: above low water, under budget
		s.Put("deltas", "p0", fmt.Sprintf("c%04d", i), val(i))
	}
	time.Sleep(50 * time.Millisecond) // dozens of flush ticks
	if tc := s.TierCounters(); tc.FlushedRows != 0 {
		t.Fatalf("flusher migrated %d rows of an under-budget working set", tc.FlushedRows)
	}
}

func TestScanCountsShadowedRowsAsHot(t *testing.T) {
	// A row resident in both tiers (rewritten after its old version went
	// cold) is served from the hot tier; a scan must bill it to HotHits
	// only, or hit ratios sink and the cold-read latency surcharge is
	// charged for memory-served rows.
	s := open(t, t.TempDir(), Options{HotBytes: 1 << 30, FlushInterval: time.Hour})
	defer s.Close()
	s.cold.Put("deltas", "p0", "c1", val(1)) // stale cold copy
	s.cold.Put("deltas", "p0", "c2", val(3)) // cold-only row
	s.Put("deltas", "p0", "c0", val(0))      // hot-only row
	s.Put("deltas", "p0", "c1", val(2))      // shadows the cold copy
	rows := s.ScanPrefix("deltas", "p0", "")
	if len(rows) != 3 || !bytes.Equal(rows[1].Value, val(2)) {
		t.Fatalf("merged scan wrong: %d rows", len(rows))
	}
	tc := s.TierCounters()
	if tc.HotHits != 2 || tc.ColdReads != 1 {
		t.Fatalf("scan billed hot=%d cold=%d, want hot=2 cold=1 (shadowed row is hot-served)", tc.HotHits, tc.ColdReads)
	}
}

func TestReopenRecoversBothTiers(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, fastOptions())
	const n = 200
	for i := 0; i < n; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%04d", i), val(i))
	}
	s.Delete("deltas", "p0", "c0000")
	waitFor(t, "some flushing", func() bool { return s.TierCounters().FlushedRows > 0 })
	stored := s.StoredBytes()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir, fastOptions())
	defer r.Close()
	if got := r.StoredBytes(); got != stored {
		t.Fatalf("stored bytes after reopen: %d, want %d", got, stored)
	}
	if _, ok := r.Get("deltas", "p0", "c0000"); ok {
		t.Fatal("deleted row resurrected after reopen")
	}
	for i := 1; i < n; i++ {
		v, ok := r.Get("deltas", "p0", fmt.Sprintf("c%04d", i))
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("row %d lost across reopen", i)
		}
	}
}

func TestKillMidFlushLosesNothing(t *testing.T) {
	// Throttle flushing hard so the kill lands with the hot tier
	// partially migrated: some rows only in the WAL, some mid-chunk,
	// some already cold.
	opts := Options{
		HotBytes:      2 << 10,
		CompactRate:   64 << 10,
		FlushInterval: time.Millisecond,
	}
	dir := t.TempDir()
	s := open(t, dir, opts)
	const n = 500
	for i := 0; i < n; i++ {
		s.Put("deltas", fmt.Sprintf("p%02d", i%8), fmt.Sprintf("c%04d", i), val(i))
		if i == n/2 {
			s.Delete("deltas", "p01", "c0001")
		}
	}
	s.Kill() // crash: no final fsync, flusher abandoned where it was

	r := open(t, dir, opts)
	defer r.Close()
	for i := 0; i < n; i++ {
		pk, ck := fmt.Sprintf("p%02d", i%8), fmt.Sprintf("c%04d", i)
		v, ok := r.Get("deltas", pk, ck)
		if i == 1 {
			if ok {
				t.Fatal("deleted row survived the crash")
			}
			continue
		}
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("row %d lost in crash (pk=%s ck=%s)", i, pk, ck)
		}
	}
}

func TestTornWALTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{HotBytes: 1 << 30, FlushInterval: time.Hour})
	for i := 0; i < 20; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%03d", i), val(i))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Kill()

	// Simulate a crash mid-append: garbage at the WAL tail.
	walDir := filepath.Join(dir, "wal")
	names, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil || len(names) == 0 {
		t.Fatalf("wal segments: %v %v", names, err)
	}
	last := names[len(names)-1] // Glob sorts; zero-padded ids sort numerically
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn-half-record")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := open(t, dir, Options{HotBytes: 1 << 30})
	defer r.Close()
	for i := 0; i < 20; i++ {
		if _, ok := r.Get("deltas", "p0", fmt.Sprintf("c%03d", i)); !ok {
			t.Fatalf("acknowledged row %d lost to torn-tail truncation", i)
		}
	}
}

func TestDeleteDuringFlushDoesNotResurrect(t *testing.T) {
	// Delete rows continuously while the flusher migrates under a tight
	// budget; deleted rows must stay gone (the flush gate orders the
	// cold write and the delete).
	s := open(t, t.TempDir(), fastOptions())
	defer s.Close()
	const n = 300
	for i := 0; i < n; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%04d", i), val(i))
		if i%3 == 0 {
			if !s.Delete("deltas", "p0", fmt.Sprintf("c%04d", i)) {
				t.Fatalf("delete of fresh row %d reported absent", i)
			}
		}
	}
	// The hot rows themselves, not the HotBytes gauge: a drain that ends
	// between the marks leaves the rest to the idle pass, which re-homes
	// what it flushes as warm copies the gauge still counts.
	waitFor(t, "hot drain", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.hot.StoredBytes() <= 2<<10
	})
	for i := 0; i < n; i++ {
		_, ok := s.Get("deltas", "p0", fmt.Sprintf("c%04d", i))
		if i%3 == 0 && ok {
			t.Fatalf("deleted row %d resurrected", i)
		}
		if i%3 != 0 && !ok {
			t.Fatalf("row %d lost", i)
		}
	}
}

func TestDropPartitionSpansTiers(t *testing.T) {
	s := open(t, t.TempDir(), fastOptions())
	defer s.Close()
	for i := 0; i < 100; i++ {
		s.Put("deltas", "keep", fmt.Sprintf("c%03d", i), val(i))
		s.Put("deltas", "drop", fmt.Sprintf("c%03d", i), val(i))
	}
	waitFor(t, "some flushing", func() bool { return s.TierCounters().FlushedRows > 0 })
	s.DropPartition("deltas", "drop")
	if rows := s.ScanPrefix("deltas", "drop", ""); len(rows) != 0 {
		t.Fatalf("dropped partition still has %d rows", len(rows))
	}
	pks := s.PartitionKeys("deltas")
	if len(pks) != 1 || pks[0] != "keep" {
		t.Fatalf("partition keys = %v, want [keep]", pks)
	}
}

func TestMultiGetSpansTiers(t *testing.T) {
	s := open(t, t.TempDir(), fastOptions())
	defer s.Close()
	const n = 200
	for i := 0; i < n; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%04d", i), val(i))
	}
	waitFor(t, "hot drain", func() bool { return s.TierCounters().HotBytes <= 2<<10 })
	// Keep a few rows hot again.
	for i := 0; i < 5; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%04d", i), val(i))
	}
	reqs := make([]backend.KeyRead, 0, n+1)
	for i := 0; i < n; i++ {
		reqs = append(reqs, backend.KeyRead{Table: "deltas", PKey: "p0", CKey: fmt.Sprintf("c%04d", i)})
	}
	reqs = append(reqs, backend.KeyRead{Table: "deltas", PKey: "p0", CKey: "absent"})
	out := s.MultiGet(reqs)
	for i := 0; i < n; i++ {
		if !bytes.Equal(out[i], val(i)) {
			t.Fatalf("batch row %d wrong", i)
		}
	}
	if out[n] != nil {
		t.Fatal("absent key must be nil in batch result")
	}
}

func TestColdCompactionRunsInBackground(t *testing.T) {
	opts := fastOptions()
	opts.Cold.CompactMinDead = 1 << 10
	s := open(t, t.TempDir(), opts)
	defer s.Close()
	// Overwrite the same keys repeatedly: each overwrite strands the old
	// cold record as dead bytes once flushed. Every round exceeds the
	// 4 KiB budget so the drain latch engages.
	for round := 0; round < 30; round++ {
		for i := 0; i < 80; i++ {
			s.Put("deltas", "p0", fmt.Sprintf("c%03d", i), val(round))
		}
		waitFor(t, "flush round", func() bool { return s.TierCounters().HotBytes <= 2<<10 })
	}
	waitFor(t, "background cold compaction", func() bool {
		return s.TierCounters().Compactions > 0
	})
	for i := 0; i < 80; i++ {
		v, ok := s.Get("deltas", "p0", fmt.Sprintf("c%03d", i))
		if !ok || !bytes.Equal(v, val(29)) {
			t.Fatalf("row %d wrong after compaction", i)
		}
	}
}

func TestBackupOpensAsTieredStore(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, fastOptions())
	const n = 150
	for i := 0; i < n; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%04d", i), val(i))
	}
	waitFor(t, "some flushing", func() bool { return s.TierCounters().FlushedRows > 0 })
	backupDir := filepath.Join(t.TempDir(), "backup")
	if err := s.Backup(backupDir); err != nil {
		t.Fatal(err)
	}
	// The original keeps running and changing; the backup is frozen.
	s.Put("deltas", "p0", "c9999", val(1))
	defer s.Close()

	b := open(t, backupDir, fastOptions())
	defer b.Close()
	for i := 0; i < n; i++ {
		v, ok := b.Get("deltas", "p0", fmt.Sprintf("c%04d", i))
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("row %d missing from backup", i)
		}
	}
	if _, ok := b.Get("deltas", "p0", "c9999"); ok {
		t.Fatal("post-backup write leaked into the backup")
	}
}

func TestFactory(t *testing.T) {
	root := t.TempDir()
	f := Factory(root, fastOptions())
	for node := 0; node < 3; node++ {
		be, err := f(node)
		if err != nil {
			t.Fatal(err)
		}
		be.Put("t", "p", "c", []byte{byte(node)})
		if err := be.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(root, fmt.Sprintf("node-%03d", node), "wal")); err != nil {
			t.Fatalf("node %d wal dir: %v", node, err)
		}
	}
}

func TestSecondOpenOfLiveDirRejected(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, fastOptions())
	if _, err := Open(dir, fastOptions()); err == nil {
		t.Fatal("second handle on a live tiered directory must be rejected")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The lock dies with the handle: reopening after Close works.
	r := open(t, dir, fastOptions())
	r.Close()
}

// waitWarm blocks until the store's open-time warm-up finished.
func waitWarm(t *testing.T, s *Store) {
	t.Helper()
	waitFor(t, "warm-up to finish", func() bool { return s.TierCounters().Warming == 0 })
}

// coldSeed builds a store whose rows all live in cold segments (tiny
// hot budget keeps the drain latch engaged; small WAL segments retire
// behind the flusher), closes it, and returns the directory and row
// count. The reopened store starts with an empty hot tier — the
// restart scenario warm-up exists for.
func coldSeed(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	opts := Options{
		HotBytes:        1,
		CompactRate:     -1,
		FlushInterval:   time.Millisecond,
		WALSegmentBytes: 1 << 10,
		DisableWarm:     true,
	}
	s := open(t, dir, opts)
	for i := 0; i < n; i++ {
		s.Put("deltas", fmt.Sprintf("p%02d", i%4), fmt.Sprintf("c%04d", i), val(i))
	}
	waitFor(t, "full drain to cold", func() bool { return s.TierCounters().HotBytes == 0 })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestWarmUpRepopulatesNewestRows(t *testing.T) {
	const n = 300
	dir := coldSeed(t, n)
	s := open(t, dir, Options{HotBytes: 1 << 30, FlushInterval: time.Millisecond})
	defer s.Close()
	waitWarm(t, s)
	tc := s.TierCounters()
	// The last few rows may come back via WAL replay (the active WAL
	// segment never retires) and are hot-owned, not warmed; everything
	// else must be warmed under an unbounded budget.
	if tc.WarmedRows < n-20 {
		t.Fatalf("warmed %d rows, want nearly all %d (budget is unbounded)", tc.WarmedRows, n)
	}
	if tc.WarmedBytes == 0 || tc.HotBytes == 0 {
		t.Fatalf("warm-up accounted nothing: %+v", tc)
	}
	// The recent-timespan probe: every row is answered from memory, zero
	// cold-tier reads.
	base := tc.ColdReads
	for i := 0; i < n; i++ {
		v, ok := s.Get("deltas", fmt.Sprintf("p%02d", i%4), fmt.Sprintf("c%04d", i))
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("row %d wrong after warm-up", i)
		}
	}
	if got := s.TierCounters().ColdReads - base; got != 0 {
		t.Fatalf("warmed store paid %d cold reads on the probe, want 0", got)
	}
}

func TestWarmUpHonorsBudgetNewestFirst(t *testing.T) {
	const n = 400
	dir := coldSeed(t, n)
	// Budget for roughly a quarter of the data: only the newest rows
	// come back.
	s := open(t, dir, Options{HotBytes: 8 << 10, CompactRate: -1, FlushInterval: time.Millisecond})
	defer s.Close()
	waitWarm(t, s)
	tc := s.TierCounters()
	if tc.WarmedRows == 0 || tc.WarmedRows >= n {
		t.Fatalf("warmed %d rows, want a strict budget-bounded subset of %d", tc.WarmedRows, n)
	}
	if tc.WarmedBytes > 8<<10 {
		t.Fatalf("warm-up overshot the budget: %d bytes", tc.WarmedBytes)
	}
	// The newest row is warm, the oldest is not.
	base := s.TierCounters().ColdReads
	if _, ok := s.Get("deltas", fmt.Sprintf("p%02d", (n-1)%4), fmt.Sprintf("c%04d", n-1)); !ok {
		t.Fatal("newest row missing")
	}
	if got := s.TierCounters().ColdReads - base; got != 0 {
		t.Fatalf("newest row not served warm (%d cold reads)", got)
	}
	if _, ok := s.Get("deltas", "p00", "c0000"); !ok {
		t.Fatal("oldest row missing")
	}
	if got := s.TierCounters().ColdReads - base; got != 1 {
		t.Fatalf("oldest row should be a cold read, counters moved by %d", got)
	}
}

func TestWarmUpDisabled(t *testing.T) {
	dir := coldSeed(t, 100)
	s := open(t, dir, Options{HotBytes: 1 << 30, DisableWarm: true})
	defer s.Close()
	time.Sleep(20 * time.Millisecond)
	tc := s.TierCounters()
	if tc.WarmedRows != 0 || tc.Warming != 0 {
		t.Fatalf("DisableWarm still warmed: %+v", tc)
	}
	if _, ok := s.Get("deltas", "p00", "c0000"); !ok {
		t.Fatal("row missing")
	}
	if s.TierCounters().ColdReads == 0 {
		t.Fatal("cold-start read should hit the cold tier")
	}
}

func TestKillMidWarmUpLeavesConsistentStore(t *testing.T) {
	const n = 400
	dir := coldSeed(t, n)
	s := open(t, dir, Options{HotBytes: 1 << 30, FlushInterval: time.Millisecond})
	s.Kill() // no waiting: the kill races the background warm-up

	r := open(t, dir, Options{HotBytes: 1 << 30, FlushInterval: time.Millisecond})
	defer r.Close()
	waitWarm(t, r)
	for i := 0; i < n; i++ {
		v, ok := r.Get("deltas", fmt.Sprintf("p%02d", i%4), fmt.Sprintf("c%04d", i))
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("row %d damaged by kill mid-warm-up", i)
		}
	}
}

func TestWarmedCopyInvalidatedByWriteAndDelete(t *testing.T) {
	dir := coldSeed(t, 50)
	s := open(t, dir, Options{HotBytes: 1 << 30, FlushInterval: time.Hour})
	defer s.Close()
	waitWarm(t, s)
	// Overwrite a warmed row: the hot tier takes over; the stale warmed
	// copy must not survive to shadow the cold tier later.
	s.Put("deltas", "p01", "c0001", []byte("fresh"))
	if v, _ := s.Get("deltas", "p01", "c0001"); !bytes.Equal(v, []byte("fresh")) {
		t.Fatalf("overwrite not visible: %q", v)
	}
	gaugeBefore := s.TierCounters().HotBytes
	if !s.Delete("deltas", "p02", "c0002") {
		t.Fatal("delete of warmed row reported absent")
	}
	if _, ok := s.Get("deltas", "p02", "c0002"); ok {
		t.Fatal("deleted warmed row still readable")
	}
	// Deleting a warmed-only row takes no hot-tier branch; the memory
	// gauge must still see the freed bytes (the flusher is parked, so
	// nothing else refreshes it).
	if got := s.TierCounters().HotBytes; got >= gaugeBefore {
		t.Fatalf("HotBytes gauge stuck at %d after deleting a warmed row (was %d)", got, gaugeBefore)
	}
	s.DropPartition("deltas", "p03")
	if rows := s.ScanPrefix("deltas", "p03", ""); len(rows) != 0 {
		t.Fatalf("dropped partition still has %d rows (warmed leftovers)", len(rows))
	}
}

func TestIdleSchedulerDrainsAfterQuietWindow(t *testing.T) {
	// Busy phase: sustained traffic below HotBytes must cause no flush
	// activity at all. Quiet phase: after the idle window the hot tier
	// drains fully (WAL retires), while every row stays memory-served.
	opts := Options{
		HotBytes:         256 << 10,
		CompactRate:      -1,
		FlushInterval:    time.Millisecond,
		WALSegmentBytes:  1 << 10,
		IdleCompactAfter: 50 * time.Millisecond,
	}
	s := open(t, t.TempDir(), opts)
	defer s.Close()
	const n = 500 // ~34 KB, far under budget
	deadline := time.Now().Add(150 * time.Millisecond)
	i := 0
	for time.Now().Before(deadline) {
		s.Put("deltas", fmt.Sprintf("p%02d", i%4), fmt.Sprintf("c%04d", i%n), val(i%n))
		i++
		if i%50 == 0 {
			time.Sleep(time.Millisecond) // sustained, not bursty
		}
	}
	if tc := s.TierCounters(); tc.FlushedRows != 0 {
		t.Fatalf("flusher migrated %d rows during sustained under-budget traffic", tc.FlushedRows)
	}
	// Quiet: the idle window elapses, the drain runs at full speed.
	waitFor(t, "idle full drain", func() bool {
		tc := s.TierCounters()
		return tc.FlushedRows > 0 && tc.IdleCompactions > 0
	})
	waitFor(t, "WAL retirement after idle drain", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.wal.Len() == 1 && s.hot.StoredBytes() == 0
	})
	// Drained rows stay memory-resident: the probe pays no cold reads.
	base := s.TierCounters().ColdReads
	for j := 0; j < n; j++ {
		if _, ok := s.Get("deltas", fmt.Sprintf("p%02d", j%4), fmt.Sprintf("c%04d", j)); !ok {
			t.Fatalf("row %d lost in idle drain", j)
		}
	}
	if got := s.TierCounters().ColdReads - base; got != 0 {
		t.Fatalf("idle drain demoted %d rows to cold reads, want 0 (re-homed warm)", got)
	}
}

func TestBackupDoesNotBlockReads(t *testing.T) {
	s := open(t, t.TempDir(), fastOptions())
	defer s.Close()
	const n = 400
	for i := 0; i < n; i++ {
		s.Put("deltas", fmt.Sprintf("p%02d", i%4), fmt.Sprintf("c%04d", i), val(i))
	}
	waitFor(t, "some flushing", func() bool { return s.TierCounters().FlushedRows > 0 })

	// Park the backup after its snapshot, before the copy — the window
	// in which the old implementation held the store lock and every Get
	// on the node stalled.
	parked := make(chan struct{})
	release := make(chan struct{})
	backupCopyHook = func() {
		close(parked)
		<-release
	}
	defer func() { backupCopyHook = nil }()

	backupDir := filepath.Join(t.TempDir(), "backup")
	errc := make(chan error, 1)
	go func() { errc <- s.Backup(backupDir) }()
	<-parked

	// Reads (hot and cold) and puts complete while the backup is parked
	// mid-flight.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if _, ok := s.Get("deltas", fmt.Sprintf("p%02d", i%4), fmt.Sprintf("c%04d", i)); !ok {
				t.Errorf("row %d unreadable during backup", i)
				return
			}
		}
		s.Put("deltas", "p00", "during-backup", val(1))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reads blocked behind an in-flight backup")
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	// The backup is a consistent pre-snapshot state and opens cleanly.
	b := open(t, backupDir, fastOptions())
	defer b.Close()
	for i := 0; i < n; i++ {
		v, ok := b.Get("deltas", fmt.Sprintf("p%02d", i%4), fmt.Sprintf("c%04d", i))
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("row %d missing from backup", i)
		}
	}
	if _, ok := b.Get("deltas", "p00", "during-backup"); ok {
		t.Fatal("write issued during the backup leaked into the copy")
	}
}

func TestBackupIntoDirtyTargetLeavesItUnchanged(t *testing.T) {
	s := open(t, t.TempDir(), fastOptions())
	defer s.Close()
	for i := 0; i < 50; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%03d", i), val(i))
	}
	waitFor(t, "some flushing", func() bool { return s.TierCounters().FlushedRows > 0 })

	snapshot := func(root string) map[string]int64 {
		out := map[string]int64{}
		filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() {
				out[path] = info.Size()
			}
			return nil
		})
		return out
	}
	check := func(t *testing.T, target string) {
		t.Helper()
		before := snapshot(target)
		if err := s.Backup(target); err == nil {
			t.Fatal("backup into a dirty target must fail")
		}
		after := snapshot(target)
		if len(before) != len(after) {
			t.Fatalf("failed backup changed the target: %d files -> %d", len(before), len(after))
		}
		for p, sz := range before {
			if after[p] != sz {
				t.Fatalf("failed backup modified %s", p)
			}
		}
	}

	t.Run("dirty wal", func(t *testing.T) {
		target := t.TempDir()
		if err := os.MkdirAll(filepath.Join(target, "wal"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(target, "wal", "wal-00000001.log"), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, target)
	})
	t.Run("dirty cold", func(t *testing.T) {
		target := t.TempDir()
		if err := os.MkdirAll(filepath.Join(target, "cold"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(target, "cold", "seg-00000001.log"), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, target)
	})
}

func TestWarmEvictsBeforeHotFlushes(t *testing.T) {
	// Memory pressure on a warmed store is relieved by dropping warmed
	// copies (free), not by flushing hot rows (cold-tier I/O): as long
	// as the hot rows alone fit the budget, FlushedRows stays zero and
	// the newest warmth survives.
	const n = 400
	dir := coldSeed(t, n)
	s := open(t, dir, Options{HotBytes: 16 << 10, CompactRate: -1, FlushInterval: time.Millisecond})
	defer s.Close()
	waitWarm(t, s)
	warmedBytes := s.TierCounters().WarmedBytes
	if warmedBytes == 0 {
		t.Fatal("precondition: nothing warmed")
	}
	for i := 0; i < 100; i++ { // ~7 KB of new hot data: under budget on its own
		s.Put("deltas", "new", fmt.Sprintf("c%04d", i), val(i))
	}
	waitFor(t, "memory to settle back to the budget", func() bool {
		return s.TierCounters().HotBytes <= 16<<10
	})
	if tc := s.TierCounters(); tc.FlushedRows != 0 {
		t.Fatalf("hot rows flushed (%d) while warm eviction could cover the pressure", tc.FlushedRows)
	}
	// The newest warmed row survived the partial eviction.
	base := s.TierCounters().ColdReads
	if _, ok := s.Get("deltas", fmt.Sprintf("p%02d", (n-1)%4), fmt.Sprintf("c%04d", n-1)); !ok {
		t.Fatal("newest row missing")
	}
	if got := s.TierCounters().ColdReads - base; got != 0 {
		t.Fatalf("newest warmed row was evicted ahead of older ones (%d cold reads)", got)
	}
}
