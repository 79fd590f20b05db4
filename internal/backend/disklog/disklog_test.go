package disklog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hgs/internal/backend"
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

func TestBasicOps(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()

	s.Put("deltas", "p1", "b", []byte("two"))
	s.Put("deltas", "p1", "a", []byte("one"))
	s.Put("deltas", "p2", "a", []byte("other"))

	if v, ok := s.Get("deltas", "p1", "a"); !ok || string(v) != "one" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if _, ok := s.Get("deltas", "p1", "zz"); ok {
		t.Fatal("missing ckey found")
	}
	if _, ok := s.Get("deltas", "nope", "a"); ok {
		t.Fatal("missing partition found")
	}

	// Overwrite.
	s.Put("deltas", "p1", "a", []byte("ONE!"))
	if v, _ := s.Get("deltas", "p1", "a"); string(v) != "ONE!" {
		t.Fatalf("overwrite: %q", v)
	}

	rows := s.ScanPrefix("deltas", "p1", "")
	if len(rows) != 2 || rows[0].CKey != "a" || rows[1].CKey != "b" {
		t.Fatalf("scan: %+v", rows)
	}

	if !s.Delete("deltas", "p1", "a") {
		t.Fatal("delete existing = false")
	}
	if s.Delete("deltas", "p1", "a") {
		t.Fatal("delete missing = true")
	}
	if got := s.PartitionKeys("deltas"); len(got) != 2 || got[0] != "p1" || got[1] != "p2" {
		t.Fatalf("partition keys: %v", got)
	}
	s.DropPartition("deltas", "p1")
	if got := s.PartitionKeys("deltas"); len(got) != 1 || got[0] != "p2" {
		t.Fatalf("partition keys after drop: %v", got)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	s.Put("t", "p", "k", []byte("abc"))
	v, _ := s.Get("t", "p", "k")
	v[0] = 'X'
	again, _ := s.Get("t", "p", "k")
	if string(again) != "abc" {
		t.Fatal("stored value mutated through returned slice")
	}
}

func TestStoredBytesMatchesMemtableSemantics(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	s.Put("t", "p", "k1", []byte("aaaa"))
	s.Put("t", "p", "k2", []byte("bbbb"))
	want := int64(2 * (2 + 4)) // len(ckey)+len(value) per row
	if got := s.StoredBytes(); got != want {
		t.Fatalf("stored = %d, want %d", got, want)
	}
	s.DropPartition("t", "p")
	if got := s.StoredBytes(); got != 0 {
		t.Fatalf("stored after drop = %d", got)
	}
}

func TestReopenRecoversState(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 100; i++ {
		s.Put("t", fmt.Sprintf("p%d", i%4), fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("val-%d", i)))
	}
	s.Delete("t", "p0", "k000")
	s.DropPartition("t", "p3")
	wantStored := s.StoredBytes()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir, Options{})
	defer r.Close()
	if got := r.StoredBytes(); got != wantStored {
		t.Fatalf("stored after reopen = %d, want %d", got, wantStored)
	}
	if _, ok := r.Get("t", "p0", "k000"); ok {
		t.Fatal("deleted row resurrected")
	}
	if rows := r.ScanPrefix("t", "p3", ""); len(rows) != 0 {
		t.Fatal("dropped partition resurrected")
	}
	if v, ok := r.Get("t", "p1", "k001"); !ok || string(v) != "val-1" {
		t.Fatalf("row lost across reopen: %q,%v", v, ok)
	}
	// Reopened store accepts writes.
	r.Put("t", "p0", "new", []byte("post-reopen"))
	if v, _ := r.Get("t", "p0", "new"); string(v) != "post-reopen" {
		t.Fatal("write after reopen failed")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 256, DisableAutoCompact: true})
	for i := 0; i < 50; i++ {
		s.Put("t", "p", fmt.Sprintf("k%03d", i), bytes.Repeat([]byte{'x'}, 32))
	}
	if s.Segments() < 2 {
		t.Fatalf("expected rotation, got %d segments", s.Segments())
	}
	s.Close()

	r := open(t, dir, Options{SegmentBytes: 256, DisableAutoCompact: true})
	defer r.Close()
	for i := 0; i < 50; i++ {
		if v, ok := r.Get("t", "p", fmt.Sprintf("k%03d", i)); !ok || len(v) != 32 {
			t.Fatalf("row k%03d lost after multi-segment reopen", i)
		}
	}
}

// TestTornFinalRecordRecovered is the crash test: a write cut off
// mid-record (as a power loss would) must be detected by the CRC and
// truncated away, keeping every earlier record.
func TestTornFinalRecordRecovered(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 10; i++ {
		s.Put("t", "p", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("value-%d", i)))
	}
	s.Close()

	// Tear the final record: chop a few bytes off the segment tail.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	st, _ := os.Stat(last)
	if err := os.Truncate(last, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir, Options{})
	defer r.Close()
	for i := 0; i < 9; i++ {
		if v, ok := r.Get("t", "p", fmt.Sprintf("k%d", i)); !ok || string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("record %d lost by torn-tail recovery: %q,%v", i, v, ok)
		}
	}
	if _, ok := r.Get("t", "p", "k9"); ok {
		t.Fatal("torn record should be gone")
	}
	// The engine keeps working after recovery and the repair sticks.
	r.Put("t", "p", "k9", []byte("rewritten"))
	r.Close()
	rr := open(t, dir, Options{})
	defer rr.Close()
	if v, ok := rr.Get("t", "p", "k9"); !ok || string(v) != "rewritten" {
		t.Fatalf("post-recovery write lost: %q,%v", v, ok)
	}
}

// TestGarbageTailRecovered covers corruption rather than truncation:
// flipped bits in the final record fail the checksum.
func TestGarbageTailRecovered(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	s.Put("t", "p", "good", []byte("kept"))
	s.Put("t", "p", "bad", []byte("mangled"))
	s.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat()
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff}, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := open(t, dir, Options{})
	defer r.Close()
	if v, ok := r.Get("t", "p", "good"); !ok || string(v) != "kept" {
		t.Fatalf("good record lost: %q,%v", v, ok)
	}
	if _, ok := r.Get("t", "p", "bad"); ok {
		t.Fatal("corrupt record survived")
	}
}

// TestUndecodableRecordFailsOpen: a CRC-valid record that does not
// decode (unknown op — version skew or a writer bug, never a torn
// write) must fail the open rather than be truncated away with every
// acknowledged record after it.
func TestUndecodableRecordFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	s.Put("t", "p", "k", []byte("v"))
	s.Close()

	payload := []byte{0x7f, 0x01, 't', 0x01, 'p'} // op 0x7f is unknown
	rec := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	copy(rec[8:], payload)
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("CRC-valid undecodable record must fail open, not truncate")
	}
}

func TestCorruptMiddleSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 128, DisableAutoCompact: true})
	for i := 0; i < 30; i++ {
		s.Put("t", "p", fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{'y'}, 24))
	}
	if s.Segments() < 3 {
		t.Fatalf("need >=3 segments, got %d", s.Segments())
	}
	s.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err := os.Truncate(segs[0], 5); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corruption in a non-final segment must fail open")
	}
}

func TestCompactionDropsOverwrites(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{DisableAutoCompact: true})
	payload := bytes.Repeat([]byte{'z'}, 100)
	for round := 0; round < 20; round++ {
		for i := 0; i < 10; i++ {
			s.Put("t", "p", fmt.Sprintf("k%d", i), payload)
		}
	}
	s.Delete("t", "p", "k9")
	if s.DeadBytes() == 0 {
		t.Fatal("overwrites should leave dead bytes")
	}
	sizeBefore := diskUsage(t, dir)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.DeadBytes() != 0 {
		t.Fatalf("dead bytes after compact = %d", s.DeadBytes())
	}
	if s.Compactions() != 1 {
		t.Fatalf("compactions = %d, want 1", s.Compactions())
	}
	if after := diskUsage(t, dir); after >= sizeBefore {
		t.Fatalf("compaction did not shrink disk: %d -> %d", sizeBefore, after)
	}
	for i := 0; i < 9; i++ {
		if v, ok := s.Get("t", "p", fmt.Sprintf("k%d", i)); !ok || !bytes.Equal(v, payload) {
			t.Fatalf("row k%d damaged by compaction", i)
		}
	}
	if _, ok := s.Get("t", "p", "k9"); ok {
		t.Fatal("deleted row resurrected by compaction")
	}
	s.Close()

	// Compacted state must survive reopen.
	r := open(t, dir, Options{})
	defer r.Close()
	for i := 0; i < 9; i++ {
		if v, ok := r.Get("t", "p", fmt.Sprintf("k%d", i)); !ok || !bytes.Equal(v, payload) {
			t.Fatalf("row k%d lost after compact+reopen", i)
		}
	}
}

func TestCompactVerifiesChecksums(t *testing.T) {
	// Compaction copies records verbatim; a record whose checksum no
	// longer matches aborts it, so the corruption stays detectable instead
	// of being copied forward under a fresh checksum.
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 128, DisableAutoCompact: true})
	defer s.Close()
	for i := 0; i < 40; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%03d", i), []byte(fmt.Sprintf("value-%03d", i)))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(before) < 6 {
		t.Fatalf("precondition: want many small segments, got %d", len(before))
	}
	// header(8) op(1) "deltas"(1+6) "p0"(1+2) "c0NN"(1+4) len(1): the
	// value of a segment's first record starts at byte 25.
	f, err := os.OpenFile(before[2], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	f.ReadAt(b[:], 25)
	b[0] ^= 0x01
	f.WriteAt(b[:], 25)
	f.Close()

	if err := s.Compact(); !errors.Is(err, reclog.ErrCorrupt) {
		t.Fatalf("compaction over a corrupt record = %v; want reclog.ErrCorrupt", err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if fmt.Sprint(after) != fmt.Sprint(before) || s.Segments() != len(before) || s.Compactions() != 0 {
		t.Fatalf("aborted compaction changed the segment set:\n%v\n%v", before, after)
	}
	// The last original segment is active again and takes writes.
	s.Put("deltas", "p0", "later", []byte("still writable"))
	if v, ok := s.Get("deltas", "p0", "later"); !ok || string(v) != "still writable" {
		t.Fatalf("write after aborted compaction: %q,%v", v, ok)
	}
}

func TestAutoCompactionTriggers(t *testing.T) {
	s := open(t, t.TempDir(), Options{CompactMinDead: 512})
	defer s.Close()
	payload := bytes.Repeat([]byte{'w'}, 64)
	for round := 0; round < 100; round++ {
		s.Put("t", "p", "hot", payload)
	}
	// One hot key overwritten 100x: dead ≫ live, so the trigger must
	// have fired at least once and kept the log near its live size.
	if dead := s.DeadBytes(); dead > 2*s.StoredBytes()+1024 {
		t.Fatalf("auto-compaction never ran: dead=%d", dead)
	}
	if v, ok := s.Get("t", "p", "hot"); !ok || !bytes.Equal(v, payload) {
		t.Fatal("row damaged by auto-compaction")
	}
	if s.Compactions() == 0 {
		t.Fatal("triggered compactions not counted")
	}
}

func TestFactory(t *testing.T) {
	dir := t.TempDir()
	f := Factory(dir, Options{})
	var engines []backend.Backend
	for i := 0; i < 3; i++ {
		be, err := f(i)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, be)
		be.Put("t", "p", "k", []byte{byte(i)})
	}
	for i, be := range engines {
		if v, ok := be.Get("t", "p", "k"); !ok || v[0] != byte(i) {
			t.Fatalf("node %d isolation broken", i)
		}
		be.Close()
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("node-%03d", i))); err != nil {
			t.Fatalf("node dir missing: %v", err)
		}
	}
}

func diskUsage(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// residentBytes walks the index and sums what its resident copies cost
// against HotBytes; the gauge must always agree with it.
func residentBytes(s *Store) (n int64, rows map[string]bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rows = map[string]bool{}
	for table, parts := range s.tables {
		for pkey, p := range parts {
			for _, r := range p.rows {
				if r.hot != nil {
					n += int64(len(r.ckey) + len(r.hot.val))
					rows[table+"/"+pkey+"/"+r.ckey] = true
				}
			}
		}
	}
	return n, rows
}

func TestDiskEngineHoldsNothingInMemory(t *testing.T) {
	// The disk engine without a budget keeps no value in memory: every
	// read is a disk read, also after a reopen.
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 100; i++ {
		s.Put("deltas", fmt.Sprintf("p%d", i%4), fmt.Sprintf("c%03d", i), []byte(fmt.Sprintf("v%03d", i)))
	}
	s.Put("deltas", "p0", "empty", nil)
	check := func(s *Store) {
		t.Helper()
		if n, _ := residentBytes(s); n != 0 || s.TierCounters().HotBytes != 0 {
			t.Fatalf("disk engine holds %d bytes in memory (gauge %d)", n, s.TierCounters().HotBytes)
		}
		base := s.TierCounters()
		for i := 0; i < 100; i++ {
			if _, ok := s.Get("deltas", fmt.Sprintf("p%d", i%4), fmt.Sprintf("c%03d", i)); !ok {
				t.Fatalf("row %d missing", i)
			}
		}
		if v, ok := s.Get("deltas", "p0", "empty"); !ok || v == nil || len(v) != 0 {
			t.Fatalf("empty row = %q,%v; want present and empty", v, ok)
		}
		tc := s.TierCounters()
		if tc.HotHits != base.HotHits || tc.ColdReads-base.ColdReads != 101 {
			t.Fatalf("reads served hot=%d cold=%d, want every one from disk", tc.HotHits-base.HotHits, tc.ColdReads-base.ColdReads)
		}
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := open(t, dir, Options{})
	defer r.Close()
	check(r)
}

func TestResidentValues(t *testing.T) {
	// Twenty rows fit the budget: reads of resident rows are hot, the rest
	// cold; a row larger than the budget is never admitted; deletes and
	// drops release their copies; a reopen with a budget larger than the
	// log holds every live row again.
	const row = 4 + 32 // "cNNN" and a 32-byte value
	dir := t.TempDir()
	opts := Options{HotBytes: 20 * row}
	s := open(t, dir, opts)
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 32) }
	for i := 0; i < 60; i++ {
		s.Put("deltas", fmt.Sprintf("p%d", i%3), fmt.Sprintf("c%03d", i), value(i))
	}
	s.Put("deltas", "p0", "huge", make([]byte, 21*row))
	if got, _ := residentBytes(s); got != 20*row || s.TierCounters().HotBytes != got {
		t.Fatalf("resident bytes %d (gauge %d), want the %d-byte budget", got, s.TierCounters().HotBytes, 20*row)
	}
	if fb := s.TierCounters().FlushedBytes; fb != 60*32+21*row {
		t.Fatalf("flushed bytes = %d, want every value written (%d)", fb, 60*32+21*row)
	}

	reqs := make([]backend.KeyRead, 0, 61)
	for i := 0; i < 60; i++ {
		reqs = append(reqs, backend.KeyRead{Table: "deltas", PKey: fmt.Sprintf("p%d", i%3), CKey: fmt.Sprintf("c%03d", i)})
	}
	reqs = append(reqs, backend.KeyRead{Table: "deltas", PKey: "p0", CKey: "huge"})
	base := s.TierCounters()
	out := s.MultiGet(reqs)
	for i := 0; i < 60; i++ {
		if !bytes.Equal(out[i], value(i)) {
			t.Fatalf("batch row %d wrong", i)
		}
	}
	tc := s.TierCounters()
	if hot, cold := tc.HotHits-base.HotHits, tc.ColdReads-base.ColdReads; hot != 20 || cold != 41 {
		t.Fatalf("batch served hot=%d cold=%d, want the 20 newest rows hot", hot, cold)
	}
	out[59][0] ^= 0xff // the caller owns the returned values
	if v, _ := s.Get("deltas", "p2", "c059"); !bytes.Equal(v, value(59)) {
		t.Fatal("MultiGet handed out the resident copy itself")
	}

	// p1 holds c001, c004, ..., c058: its seven newest rows are resident.
	base = s.TierCounters()
	if rows := s.ScanPrefix("deltas", "p1", "c0"); len(rows) != 20 {
		t.Fatalf("scan returned %d rows, want 20", len(rows))
	}
	tc = s.TierCounters()
	if hot, cold := tc.HotHits-base.HotHits, tc.ColdReads-base.ColdReads; hot != 7 || cold != 13 {
		t.Fatalf("scan served hot=%d cold=%d, want hot=7 cold=13", hot, cold)
	}

	s.Delete("deltas", "p2", "c059")
	s.DropPartition("deltas", "p0") // c042 ... c057 of it are resident
	if got, _ := residentBytes(s); got != 13*row || s.TierCounters().HotBytes != got {
		t.Fatalf("resident bytes %d (gauge %d) after delete and drop, want %d", got, s.TierCounters().HotBytes, 13*row)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir, Options{HotBytes: 1 << 20})
	defer r.Close()
	_, rows := residentBytes(r)
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("deltas/p%d/c%03d", i%3, i)
		want := i%3 != 0 && i != 59
		if rows[k] != want {
			t.Fatalf("after reopen %s resident=%v, want %v", k, rows[k], want)
		}
		if v, ok := r.Get("deltas", fmt.Sprintf("p%d", i%3), fmt.Sprintf("c%03d", i)); want && !bytes.Equal(v, value(i)) {
			t.Fatalf("after reopen %s reads %x (ok=%v)", k, v, ok)
		}
	}
}

func TestReplayAdmitsOnlyTheLogTail(t *testing.T) {
	// A reopen copies values only out of the log's final HotBytes: each
	// record here is 57 bytes for a 36-byte row, so a 20-row budget
	// admits the newest 12 rows and leaves the rest of it free.
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 100; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%03d", i), bytes.Repeat([]byte{byte(i)}, 32))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := open(t, dir, Options{HotBytes: 20 * 36})
	defer r.Close()
	n, rows := residentBytes(r)
	if n != 12*36 || len(rows) != 12 || r.TierCounters().HotBytes != n {
		t.Fatalf("reopen holds %d rows, %d bytes (gauge %d); want the newest 12, %d bytes", len(rows), n, r.TierCounters().HotBytes, 12*36)
	}
	for i := 88; i < 100; i++ {
		if !rows[fmt.Sprintf("deltas/p0/c%03d", i)] {
			t.Fatalf("row c%03d, in the log's tail, is not resident", i)
		}
	}
}

func TestCompactionKeepsResidentValues(t *testing.T) {
	// Overwrite churn under a small budget compacts the log many times,
	// and once explicitly: the resident copies must stay on their rows
	// across every compaction and remain evictable, with the gauge within
	// the budget and equal to what the index holds, and every answer
	// equal to the memtable's.
	const row, budget = 4 + 32, 40 * (4 + 32)
	s := open(t, t.TempDir(), Options{HotBytes: budget, SegmentBytes: 4 << 10, CompactMinDead: 2 << 10})
	defer s.Close()
	mem := memtable.New()
	check := func(op int) {
		t.Helper()
		n, _ := residentBytes(s)
		if gauge := s.TierCounters().HotBytes; gauge > budget || gauge != n {
			t.Fatalf("op %d: gauge %d, index holds %d resident bytes, budget %d", op, gauge, n, budget)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 3000; op++ {
		ckey := fmt.Sprintf("c%03d", rng.Intn(100))
		v := make([]byte, 32)
		rng.Read(v)
		s.Put("deltas", "p0", ckey, v)
		mem.Put("deltas", "p0", ckey, append([]byte(nil), v...))
		if op == 1500 {
			_, before := residentBytes(s)
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			if _, after := residentBytes(s); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("Compact changed the resident rows:\n%v\n%v", before, after)
			}
		}
		check(op)
	}
	if s.Compactions() < 3 {
		t.Fatalf("%d compactions; the churn should trigger several", s.Compactions())
	}
	want, got := mem.ScanPrefix("deltas", "p0", ""), s.ScanPrefix("deltas", "p0", "")
	if len(got) != len(want) {
		t.Fatalf("scan returned %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].CKey != want[i].CKey || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("row %s diverged from the memtable", want[i].CKey)
		}
	}
	// Still evictable: a budget of fresh rows replaces every copy that
	// went through the compactions.
	_, compacted := residentBytes(s)
	for i := 0; i < budget/row; i++ {
		s.Put("deltas", "p1", fmt.Sprintf("n%03d", i), make([]byte, 32))
	}
	check(-1)
	_, now := residentBytes(s)
	for k := range compacted {
		if now[k] {
			t.Fatalf("%s kept its copy through compaction but can no longer be evicted", k)
		}
	}
}

func TestEvictionQueueBoundedUnderChurn(t *testing.T) {
	// A long-lived row pins the queue's head; overwrite churn behind it
	// must still be compacted away, or the queue grows by one entry per
	// Put for the life of the store.
	s := open(t, t.TempDir(), Options{HotBytes: 1 << 30})
	defer s.Close()
	s.Put("deltas", "p0", "pinned", []byte("x"))
	for i := 0; i < 10000; i++ {
		s.Put("deltas", "p0", "churn", []byte{byte(i)})
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

func TestSecondOpenOfLiveDirRejected(t *testing.T) {
	// Two live handles would append to the same segment files from their
	// own offsets, each overwriting the other's acknowledged records.
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second handle on a live disklog directory must be rejected")
	}
	for i := 0; i < 100; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%03d", i), []byte{byte(i)})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The lock dies with the handle: reopening after Close works, and
	// after Kill too.
	r := open(t, dir, Options{})
	if rows := r.ScanPrefix("deltas", "p0", ""); len(rows) != 100 {
		t.Fatalf("reopened store holds %d rows, want 100", len(rows))
	}
	r.Kill()
	k := open(t, dir, Options{})
	k.Close()
}

func TestKillLosesNothingFlushed(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 512})
	for i := 0; i < 50; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%03d", i), []byte(fmt.Sprintf("v%03d", i)))
	}
	s.Delete("deltas", "p0", "c007")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Kill()
	r := open(t, dir, Options{SegmentBytes: 512})
	defer r.Close()
	for i := 0; i < 50; i++ {
		v, ok := r.Get("deltas", "p0", fmt.Sprintf("c%03d", i))
		if i == 7 {
			if ok {
				t.Fatal("deleted row resurrected after Kill")
			}
			continue
		}
		if !ok || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("flushed row %d lost to Kill", i)
		}
	}
}

func TestBackupDoesNotBlockReads(t *testing.T) {
	s := open(t, t.TempDir(), Options{SegmentBytes: 4 << 10})
	defer s.Close()
	const n = 400
	for i := 0; i < n; i++ {
		s.Put("deltas", fmt.Sprintf("p%02d", i%4), fmt.Sprintf("c%04d", i), []byte(fmt.Sprintf("v%04d", i)))
	}

	// Park the backup after its snapshot, before the copy: the window in
	// which holding the engine lock would stall every operation.
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

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if _, ok := s.Get("deltas", fmt.Sprintf("p%02d", i%4), fmt.Sprintf("c%04d", i)); !ok {
				t.Errorf("row %d unreadable during backup", i)
				return
			}
		}
		s.Put("deltas", "p00", "during-backup", []byte("x"))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("operations blocked behind an in-flight backup")
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	// The backup is the consistent pre-snapshot state and opens cleanly.
	b := open(t, backupDir, Options{SegmentBytes: 4 << 10})
	defer b.Close()
	for i := 0; i < n; i++ {
		v, ok := b.Get("deltas", fmt.Sprintf("p%02d", i%4), fmt.Sprintf("c%04d", i))
		if !ok || string(v) != fmt.Sprintf("v%04d", i) {
			t.Fatalf("row %d missing from backup", i)
		}
	}
	if _, ok := b.Get("deltas", "p00", "during-backup"); ok {
		t.Fatal("write issued during the backup leaked into the copy")
	}
}
