package disklog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"hgs/internal/backend"
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

func TestIterNewestOrderAndStop(t *testing.T) {
	s := open(t, t.TempDir(), Options{SegmentBytes: 256})
	defer s.Close()
	for i := 0; i < 30; i++ {
		s.Put("deltas", fmt.Sprintf("p%d", i%3), fmt.Sprintf("c%03d", i), []byte(fmt.Sprintf("v%03d", i)))
	}
	s.Put("deltas", "p0", "c003", []byte("rewritten")) // c003's latest record is now the newest
	s.Delete("deltas", "p1", "c028")                   // tombstoned rows must never surface

	var got []string
	err := s.IterNewest(func(table, pkey, ckey string, value []byte) bool {
		got = append(got, ckey+"="+string(value))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 29 {
		t.Fatalf("iterated %d rows, want 29 (30 puts, 1 deleted)", len(got))
	}
	if got[0] != "c003=rewritten" {
		t.Fatalf("newest row first, got %q", got[0])
	}
	if got[1] != "c029=v029" || got[2] != "c027=v027" {
		t.Fatalf("reverse append order broken: %v", got[1:3])
	}
	for _, g := range got {
		if g == "c028=v028" {
			t.Fatal("deleted row surfaced in IterNewest")
		}
	}

	// Early stop: the callback's budget bounds the walk.
	var first []string
	err = s.IterNewest(func(table, pkey, ckey string, value []byte) bool {
		first = append(first, ckey)
		return len(first) < 5
	})
	if err != nil || len(first) != 5 {
		t.Fatalf("early stop walked %d rows (err %v), want 5", len(first), err)
	}
}

func TestMergeSmallCoalescesTailSegments(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 128, DisableAutoCompact: true})
	defer s.Close()
	for i := 0; i < 40; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%03d", i), []byte(fmt.Sprintf("value-%03d", i)))
	}
	// Overwrites strand dead records inside the small segments.
	for i := 0; i < 10; i++ {
		s.Put("deltas", "p0", fmt.Sprintf("c%03d", i), []byte(fmt.Sprintf("fresh-%03d", i)))
	}
	before := s.Segments()
	if before < 6 {
		t.Fatalf("precondition: want many small segments, got %d", before)
	}
	deadBefore := s.DeadBytes()
	n, err := s.MergeSmall(1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n < before-1 {
		t.Fatalf("merged %d of %d segments", n, before)
	}
	if s.Segments() >= before {
		t.Fatalf("segment count did not shrink: %d -> %d", before, s.Segments())
	}
	if s.DeadBytes() >= deadBefore {
		t.Fatalf("merge reclaimed nothing: dead %d -> %d", deadBefore, s.DeadBytes())
	}
	for i := 0; i < 40; i++ {
		want := fmt.Sprintf("value-%03d", i)
		if i < 10 {
			want = fmt.Sprintf("fresh-%03d", i)
		}
		if v, ok := s.Get("deltas", "p0", fmt.Sprintf("c%03d", i)); !ok || string(v) != want {
			t.Fatalf("row %d wrong after merge: %q,%v", i, v, ok)
		}
	}
	// The merged log must replay to the same state.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := open(t, dir, Options{SegmentBytes: 128, DisableAutoCompact: true})
	defer r.Close()
	for i := 0; i < 40; i++ {
		want := fmt.Sprintf("value-%03d", i)
		if i < 10 {
			want = fmt.Sprintf("fresh-%03d", i)
		}
		if v, ok := r.Get("deltas", "p0", fmt.Sprintf("c%03d", i)); !ok || string(v) != want {
			t.Fatalf("row %d wrong after merge+reopen: %q,%v", i, v, ok)
		}
	}
}

// TestMergeSmallVerifiesChecksums flips one key byte of a live put in a
// small tail segment. Copying it forward on the strength of its length
// prefix alone would judge the row superseded (its key no longer matches
// the index), drop the record and delete the only file the index points
// at. The merge must refuse instead, and change nothing.
func TestMergeSmallVerifiesChecksums(t *testing.T) {
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
	// header(8) op(1) "deltas"(1+6) "p0"(1+2) len(1): the clustering key
	// of a segment's first record starts at byte 20.
	f, err := os.OpenFile(before[2], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	f.ReadAt(b[:], 22)
	b[0] ^= 0x01
	f.WriteAt(b[:], 22)
	f.Close()

	n, err := s.MergeSmall(1<<20, 2)
	if !errors.Is(err, reclog.ErrCorrupt) || n != 0 {
		t.Fatalf("merge over a corrupt record = %d, %v; want reclog.ErrCorrupt", n, err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if fmt.Sprint(after) != fmt.Sprint(before) || s.Segments() != len(before) {
		t.Fatalf("aborted merge changed the segment set:\n%v\n%v", before, after)
	}
	for i := 0; i < 40; i++ {
		want := fmt.Sprintf("value-%03d", i)
		if v, ok := s.Get("deltas", "p0", fmt.Sprintf("c%03d", i)); !ok || string(v) != want {
			t.Fatalf("row %d after aborted merge: %q,%v", i, v, ok)
		}
	}
	// The last original segment is active again and takes writes.
	s.Put("deltas", "p0", "later", []byte("still writable"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("deltas", "p0", "later"); !ok || string(v) != "still writable" {
		t.Fatalf("write after aborted merge: %q,%v", v, ok)
	}
}

func TestMergeSmallPreservesTombstones(t *testing.T) {
	// A delete whose tombstone sits in a merged tail segment may kill a
	// row recorded in an older, untouched segment. Dropping the
	// tombstone during the merge would resurrect that row on replay.
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 128, DisableAutoCompact: true})
	// An oversized first segment stays out of the mergeable tail.
	s.Put("deltas", "p0", "victim", bytes.Repeat([]byte("x"), 300))
	s.Put("deltas", "dropme", "a", bytes.Repeat([]byte("y"), 300))
	for i := 0; i < 30; i++ {
		s.Put("deltas", "p1", fmt.Sprintf("c%03d", i), []byte(fmt.Sprintf("filler-%03d", i)))
	}
	firstID := s.log.Segments()[0].ID()
	s.Delete("deltas", "p0", "victim")
	s.DropPartition("deltas", "dropme")
	if _, err := s.MergeSmall(256, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.log.Segments()[0].ID(); got != firstID {
		t.Fatalf("merge touched the old segment (first id %d -> %d)", firstID, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := open(t, dir, Options{SegmentBytes: 128, DisableAutoCompact: true})
	defer r.Close()
	if _, ok := r.Get("deltas", "p0", "victim"); ok {
		t.Fatal("merge dropped a tombstone: deleted row resurrected on replay")
	}
	if r.HasPartition("deltas", "dropme") {
		t.Fatal("merge dropped a drop record: partition resurrected on replay")
	}
	for i := 0; i < 30; i++ {
		if _, ok := r.Get("deltas", "p1", fmt.Sprintf("c%03d", i)); !ok {
			t.Fatalf("filler row %d lost in merge", i)
		}
	}
}
