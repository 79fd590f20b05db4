package tiered

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hgs/internal/backend"
	"hgs/internal/backend/disklog"
	"hgs/internal/backend/memtable"
	"hgs/internal/reclog"
)

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

// rowBytes is what one row of the tests below (5-byte clustering key,
// val) charges against HotBytes.
const rowBytes = 5 + 64

func TestHotReadsServeWithoutColdReads(t *testing.T) {
	// A memory budget large enough for the whole working set: every read
	// is a hot hit and the cold log is never consulted for a row.
	s := open(t, t.TempDir(), Options{HotBytes: 1 << 30})
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
	if tc.HotBytes != 50*(4+64) {
		t.Fatalf("hot bytes gauge = %d, want %d", tc.HotBytes, 50*(4+64))
	}
	if tc.FlushedBytes != 50*64 {
		t.Fatalf("flushed bytes = %d, want every value written through (%d)", tc.FlushedBytes, 50*64)
	}
}

func TestEvictionIsFirstInFirstOut(t *testing.T) {
	// Budget for ten rows: the ten newest writes stay in memory, older
	// ones are evicted and served from the cold log — the write order,
	// not the key order, decides. Rewriting a row makes it the newest.
	s := open(t, t.TempDir(), Options{HotBytes: 10 * rowBytes})
	defer s.Close()
	const n = 40
	for i := 0; i < n; i++ {
		s.Put("deltas", fmt.Sprintf("p%02d", i%4), fmt.Sprintf("c%04d", n-1-i), val(i))
	}
	s.Put("deltas", "p00", fmt.Sprintf("c%04d", n-1), val(0)) // the first write, rewritten
	if got := s.TierCounters().HotBytes; got != 10*rowBytes {
		t.Fatalf("memory holds %d bytes, want the %d-byte budget", got, 10*rowBytes)
	}
	for i := 0; i < n; i++ {
		base := s.TierCounters()
		v, ok := s.Get("deltas", fmt.Sprintf("p%02d", i%4), fmt.Sprintf("c%04d", n-1-i))
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("row %d wrong", i)
		}
		hot := s.TierCounters().HotHits - base.HotHits
		if want := i == 0 || i > n-10; (hot == 1) != want {
			t.Fatalf("write %d served hot=%v, want hot=%v", i, hot == 1, want)
		}
	}
}

func TestEvictionQueueBoundedUnderChurn(t *testing.T) {
	// A long-lived row pins the queue's head; overwrite churn behind it
	// must still be compacted away, or the queue grows by one entry per
	// Put for the life of the store.
	s := open(t, t.TempDir(), Options{HotBytes: 1 << 30})
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
		t.Fatalf("eviction queue holds %d entries for 2 live rows", qlen)
	}
}

func TestUnderBudgetWorkingSetStaysHot(t *testing.T) {
	// A working set just under the budget stays resident in full: every
	// read of it is memory-served.
	s := open(t, t.TempDir(), Options{HotBytes: 600 * rowBytes})
	defer s.Close()
	for i := 0; i < 600; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%04d", i), val(i))
	}
	for i := 0; i < 600; i++ {
		if _, ok := s.Get("deltas", "p0", fmt.Sprintf("c%04d", i)); !ok {
			t.Fatalf("row %d missing", i)
		}
	}
	if tc := s.TierCounters(); tc.ColdReads != 0 {
		t.Fatalf("%d cold reads on an under-budget working set", tc.ColdReads)
	}
}

func TestScanCountsShadowedRowsAsHot(t *testing.T) {
	// Every row in memory also lives in the cold log, which decides
	// which rows a scan returns; a row whose disk copy is shadowed by a
	// memory copy is served from memory and billed hot, the rest cold.
	s := open(t, t.TempDir(), Options{HotBytes: 2 * (2 + 64)})
	defer s.Close()
	s.Put("deltas", "p0", "c2", val(3)) // evicted by the next two writes
	s.Put("deltas", "p0", "c0", val(0))
	s.Put("deltas", "p0", "c1", val(2))
	rows := s.ScanPrefix("deltas", "p0", "")
	if len(rows) != 3 || rows[0].CKey != "c0" || !bytes.Equal(rows[1].Value, val(2)) || !bytes.Equal(rows[2].Value, val(3)) {
		t.Fatalf("scan wrong: %v", rows)
	}
	tc := s.TierCounters()
	if tc.HotHits != 2 || tc.ColdReads != 1 {
		t.Fatalf("scan billed hot=%d cold=%d, want hot=2 cold=1", tc.HotHits, tc.ColdReads)
	}
	rows[0].Value[0] ^= 0xff // the caller owns the returned values
	if v, _ := s.Get("deltas", "p0", "c0"); !bytes.Equal(v, val(0)) {
		t.Fatal("scan handed out the memory copy itself")
	}
}

func TestReopenRecoversBothTiers(t *testing.T) {
	dir := t.TempDir()
	opts := Options{HotBytes: 50 * rowBytes}
	s := open(t, dir, opts)
	const n = 200
	for i := 0; i < n; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%04d", i), val(i))
	}
	s.Delete("deltas", "p0", "c0000")
	stored := s.StoredBytes()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir, opts)
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

// flushLoop calls Flush until stop closes, as a concurrent caller making
// writes durable would; errors after a Kill or Close are expected.
func flushLoop(s *Store, stop <-chan struct{}) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				s.Flush()
			}
		}
	}()
	return done
}

func TestDeleteDuringFlushDoesNotResurrect(t *testing.T) {
	// Deletes interleave with writes, evictions and concurrent Flush
	// calls; deleted rows must stay gone, also after a reopen.
	dir := t.TempDir()
	s := open(t, dir, Options{HotBytes: 4 << 10})
	stop := make(chan struct{})
	done := flushLoop(s, stop)
	const n = 300
	for i := 0; i < n; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%04d", i), val(i))
		if i%3 == 0 && !s.Delete("deltas", "p0", fmt.Sprintf("c%04d", i)) {
			t.Fatalf("delete of fresh row %d reported absent", i)
		}
	}
	close(stop)
	<-done
	check := func(s *Store) {
		t.Helper()
		for i := 0; i < n; i++ {
			_, ok := s.Get("deltas", "p0", fmt.Sprintf("c%04d", i))
			if ok != (i%3 != 0) {
				t.Fatalf("row %d present=%v", i, ok)
			}
		}
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := open(t, dir, Options{HotBytes: 4 << 10})
	defer r.Close()
	check(r)
}

func TestKillMidFlushLosesNothing(t *testing.T) {
	// Kill lands while another goroutine is flushing: every write the
	// store accepted before the kill survives the reopen.
	dir := t.TempDir()
	opts := Options{HotBytes: 2 << 10}
	s := open(t, dir, opts)
	stop := make(chan struct{})
	done := flushLoop(s, stop)
	const n = 500
	for i := 0; i < n; i++ {
		s.Put("deltas", fmt.Sprintf("p%02d", i%8), fmt.Sprintf("c%04d", i), val(i))
		if i == n/2 {
			s.Delete("deltas", "p01", "c0001")
		}
	}
	s.Kill()
	close(stop)
	<-done

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

// TestKillAfterFlushMatchesMemtableReplay: a seeded mix of puts,
// deletes and partition drops under a budget that keeps most rows out
// of memory, then Flush and Kill. The reopened store must equal a
// memtable that replayed the same operations.
func TestKillAfterFlushMatchesMemtableReplay(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		dir := t.TempDir()
		// Small segments and a low compaction floor: the stream rotates
		// and compacts the cold log many times.
		cold := disklog.Options{SegmentBytes: 4 << 10, CompactMinDead: 2 << 10}
		opts := Options{HotBytes: 2 << 10, Cold: cold}
		s := open(t, dir, opts)
		mem := memtable.New()
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 2000; op++ {
			pkey := fmt.Sprintf("p%d", rng.Intn(6))
			ckey := fmt.Sprintf("c%03d", rng.Intn(50))
			switch r := rng.Intn(20); {
			case r < 14:
				v := make([]byte, rng.Intn(96))
				rng.Read(v)
				s.Put("deltas", pkey, ckey, append([]byte(nil), v...))
				mem.Put("deltas", pkey, ckey, v)
			case r < 19:
				if got, want := s.Delete("deltas", pkey, ckey), mem.Delete("deltas", pkey, ckey); got != want {
					t.Fatalf("seed %d op %d: Delete = %v, want %v", seed, op, got, want)
				}
			default:
				s.DropPartition("deltas", pkey)
				mem.DropPartition("deltas", pkey)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		s.Kill()

		r := open(t, dir, Options{HotBytes: 2 << 10, DisableWarm: true, Cold: cold})
		if got, want := dump(r), dump(mem); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: reopened store differs from the memtable replay:\n got:\n%s\nwant:\n%s", seed, got, want)
		}
		if got, want := r.StoredBytes(), mem.StoredBytes(); got != want {
			t.Fatalf("seed %d: stored bytes %d, want %d", seed, got, want)
		}
		r.Close()
	}
}

func dump(be backend.Backend) []byte {
	var b bytes.Buffer
	for _, tbl := range be.Tables() {
		for _, pk := range be.PartitionKeys(tbl) {
			for _, r := range be.ScanPrefix(tbl, pk, "") {
				fmt.Fprintf(&b, "%q %q %q %x\n", tbl, pk, r.CKey, r.Value)
			}
		}
	}
	return b.Bytes()
}

// writeLegacyWAL writes mutation records into dir/wal the way earlier
// versions of the engine logged them.
func writeLegacyWAL(t *testing.T, dir string, muts []reclog.Mutation) string {
	t.Helper()
	walDir := filepath.Join(dir, "wal")
	w, err := reclog.Open(walDir, "wal", 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range muts {
		rec, _ := m.AppendRecord(nil)
		if _, _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	return walDir
}

func TestTornWALTailTruncated(t *testing.T) {
	// A directory written by the WAL-based engine, killed mid-append:
	// Open carries the log into the cold tier, cutting the torn tail,
	// and removes it.
	dir := t.TempDir()
	var muts []reclog.Mutation
	for i := 0; i < 20; i++ {
		muts = append(muts, reclog.Mutation{Op: reclog.OpPut, Table: "deltas", PKey: "p0", CKey: fmt.Sprintf("c%03d", i), Value: val(i)})
	}
	muts = append(muts, reclog.Mutation{Op: reclog.OpDel, Table: "deltas", PKey: "p0", CKey: "c003"})
	walDir := writeLegacyWAL(t, dir, muts)
	names, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil || len(names) < 2 {
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

	r := open(t, dir, Options{HotBytes: 1 << 30, DisableWarm: true})
	defer r.Close()
	for i := 0; i < 20; i++ {
		_, ok := r.Get("deltas", "p0", fmt.Sprintf("c%03d", i))
		if ok != (i != 3) {
			t.Fatalf("row %d present=%v after migrating the legacy WAL", i, ok)
		}
	}
	if _, err := os.Stat(walDir); !os.IsNotExist(err) {
		t.Fatalf("legacy WAL not removed after migration: %v", err)
	}
}

func TestDropPartitionSpansTiers(t *testing.T) {
	s := open(t, t.TempDir(), Options{HotBytes: 40 * rowBytes})
	defer s.Close()
	for i := 0; i < 100; i++ {
		s.Put("deltas", "keep", fmt.Sprintf("c%03d", i), val(i))
		s.Put("deltas", "drop", fmt.Sprintf("c%03d", i), val(i))
	}
	s.DropPartition("deltas", "drop")
	if rows := s.ScanPrefix("deltas", "drop", ""); len(rows) != 0 {
		t.Fatalf("dropped partition still has %d rows", len(rows))
	}
	if _, ok := s.Get("deltas", "drop", "c099"); ok {
		t.Fatal("memory copy of a dropped row still served")
	}
	pks := s.PartitionKeys("deltas")
	if len(pks) != 1 || pks[0] != "keep" {
		t.Fatalf("partition keys = %v, want [keep]", pks)
	}
	if got, want := s.TierCounters().HotBytes, int64(20*(4+64)); got != want {
		t.Fatalf("memory holds %d bytes after the drop, want the %d of the kept partition", got, want)
	}
}

func TestMultiGetSpansTiers(t *testing.T) {
	s := open(t, t.TempDir(), Options{HotBytes: 30 * rowBytes})
	defer s.Close()
	const n = 200
	for i := 0; i < n; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%04d", i), val(i))
	}
	reqs := make([]backend.KeyRead, 0, n+1)
	for i := 0; i < n; i++ {
		reqs = append(reqs, backend.KeyRead{Table: "deltas", PKey: "p0", CKey: fmt.Sprintf("c%04d", i)})
	}
	reqs = append(reqs, backend.KeyRead{Table: "deltas", PKey: "p0", CKey: "absent"})
	base := s.TierCounters().ColdReads
	out := s.MultiGet(reqs)
	cold := s.TierCounters().ColdReads - base
	for i := 0; i < n; i++ {
		if !bytes.Equal(out[i], val(i)) {
			t.Fatalf("batch row %d wrong", i)
		}
	}
	if out[n] != nil {
		t.Fatal("absent key must be nil in batch result")
	}
	if cold != n-30 {
		t.Fatalf("batch read %d rows cold, want the %d evicted ones", cold, n-30)
	}
}

func TestColdCompactionCounted(t *testing.T) {
	opts := Options{HotBytes: 4 << 10}
	opts.Cold.CompactMinDead = 1 << 10
	s := open(t, t.TempDir(), opts)
	defer s.Close()
	// Overwriting the same keys strands the old cold records as dead
	// bytes; the cold log's triggered compaction reclaims them.
	for round := 0; round < 30; round++ {
		for i := 0; i < 80; i++ {
			s.Put("deltas", "p0", fmt.Sprintf("c%03d", i), val(round))
		}
	}
	if s.TierCounters().Compactions == 0 {
		t.Fatal("cold compactions not counted")
	}
	for i := 0; i < 80; i++ {
		v, ok := s.Get("deltas", "p0", fmt.Sprintf("c%03d", i))
		if !ok || !bytes.Equal(v, val(29)) {
			t.Fatalf("row %d wrong after compaction", i)
		}
	}
}

func TestBackupOpensAsTieredStore(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{HotBytes: 4 << 10})
	const n = 150
	for i := 0; i < n; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%04d", i), val(i))
	}
	backupDir := filepath.Join(t.TempDir(), "backup")
	if err := s.Backup(backupDir); err != nil {
		t.Fatal(err)
	}
	// The original keeps running and changing; the backup is frozen.
	s.Put("deltas", "p0", "c9999", val(1))
	defer s.Close()

	b := open(t, backupDir, Options{HotBytes: 4 << 10})
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
	f := Factory(root, Options{})
	for node := 0; node < 3; node++ {
		be, err := f(node)
		if err != nil {
			t.Fatal(err)
		}
		be.Put("t", "p", "c", []byte{byte(node)})
		if err := be.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(root, fmt.Sprintf("node-%03d", node), "cold")); err != nil {
			t.Fatalf("node %d cold dir: %v", node, err)
		}
	}
}

func TestSecondOpenOfLiveDirRejected(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second handle on a live tiered directory must be rejected")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The lock dies with the handle: reopening after Close works.
	r := open(t, dir, Options{})
	r.Close()
}

// waitWarm blocks until the store's open-time warm-up finished.
func waitWarm(t *testing.T, s *Store) {
	t.Helper()
	waitFor(t, "warm-up to finish", func() bool { return s.TierCounters().Warming == 0 })
}

// coldSeed builds a store whose rows all live only in the cold log (a
// one-byte memory budget copies nothing), closes it, and returns the
// directory. The reopened store starts with empty memory — the restart
// scenario warm-up exists for.
func coldSeed(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	s := open(t, dir, Options{HotBytes: 1, DisableWarm: true})
	for i := 0; i < n; i++ {
		s.Put("deltas", fmt.Sprintf("p%02d", i%4), fmt.Sprintf("c%04d", i), val(i))
	}
	if got := s.TierCounters().HotBytes; got != 0 {
		t.Fatalf("a one-byte budget holds %d bytes", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestWarmUpRepopulatesNewestRows(t *testing.T) {
	const n = 300
	dir := coldSeed(t, n)
	s := open(t, dir, Options{HotBytes: 1 << 30})
	defer s.Close()
	waitWarm(t, s)
	tc := s.TierCounters()
	if tc.WarmedRows != n {
		t.Fatalf("warmed %d rows, want all %d (budget is unbounded)", tc.WarmedRows, n)
	}
	if tc.WarmedBytes != n*(5+64) || tc.HotBytes != tc.WarmedBytes {
		t.Fatalf("warm-up accounting wrong: %+v", tc)
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
	s := open(t, dir, Options{HotBytes: 8 << 10})
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
	// Warmed rows went in oldest-first: a new write evicts the oldest
	// warmed row, not the newest.
	s.Put("deltas", "new", "c0000", val(1))
	base = s.TierCounters().ColdReads
	if _, ok := s.Get("deltas", fmt.Sprintf("p%02d", (n-1)%4), fmt.Sprintf("c%04d", n-1)); !ok {
		t.Fatal("newest row missing")
	}
	if got := s.TierCounters().ColdReads - base; got != 0 {
		t.Fatalf("a write evicted the newest warmed row (%d cold reads)", got)
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
	s := open(t, dir, Options{HotBytes: 1 << 30})
	s.Kill() // no waiting: the kill races the background warm-up

	r := open(t, dir, Options{HotBytes: 1 << 30})
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
	s := open(t, dir, Options{HotBytes: 1 << 30})
	defer s.Close()
	waitWarm(t, s)
	// Overwrite a warmed row: the stale copy must not survive.
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
	if got := s.TierCounters().HotBytes; got != gaugeBefore-rowBytes {
		t.Fatalf("HotBytes gauge %d after deleting a warmed row, want %d", got, gaugeBefore-rowBytes)
	}
	s.DropPartition("deltas", "p03")
	if rows := s.ScanPrefix("deltas", "p03", ""); len(rows) != 0 {
		t.Fatalf("dropped partition still has %d rows (warmed leftovers)", len(rows))
	}
	if _, ok := s.Get("deltas", "p03", "c0003"); ok {
		t.Fatal("warmed copy of a dropped row still served")
	}
}

func TestBackupIntoDirtyTargetLeavesItUnchanged(t *testing.T) {
	s := open(t, t.TempDir(), Options{HotBytes: 4 << 10})
	defer s.Close()
	for i := 0; i < 50; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%03d", i), val(i))
	}

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
