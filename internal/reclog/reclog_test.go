package reclog

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openLog(t *testing.T, dir string, segBytes int64) *Log {
	t.Helper()
	l, err := Open(dir, "seg", segBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l
}

// payloads replays the log and returns every payload with its segment id.
func payloads(t *testing.T, l *Log) (out []string, ids []int) {
	t.Helper()
	err := l.Scan(func(seg *Segment, _ int64, p []byte) error {
		out = append(out, string(p))
		ids = append(ids, seg.ID())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, ids
}

// TestGoldenBytes pins the exact encoding of one put, one delete and one
// drop record (the hint record is pinned next to its codec, in kvstore),
// as the encoders of the commit before this package produced them. A
// change here is an on-disk format change: existing DataDirs stop
// opening.
func TestGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		m      Mutation
		want   string
		valOff int
	}{
		{Mutation{Op: OpPut, Table: "deltas", PKey: "t0/s1", CKey: "d3/p0", Value: []byte("value")},
			"1a000000" + "f658a1b9" + "01" + "0664656c746173" + "0574302f7331" + "0564332f7030" + "0576616c7565", 29},
		{Mutation{Op: OpDel, Table: "deltas", PKey: "t0/s1", CKey: "d3/p0"},
			"14000000" + "1b237e1c" + "02" + "0664656c746173" + "0574302f7331" + "0564332f7030", 0},
		{Mutation{Op: OpDrop, Table: "deltas", PKey: "t0/s1", CKey: "ignored"},
			"0e000000" + "b7f6d46a" + "03" + "0664656c746173" + "0574302f7331", 0},
	} {
		rec, valOff := tc.m.AppendRecord(nil)
		if got := hex.EncodeToString(rec); got != tc.want {
			t.Errorf("op %d encodes as\n %s, want\n %s", tc.m.Op, got, tc.want)
		}
		if valOff != tc.valOff {
			t.Errorf("op %d valOff = %d, want %d", tc.m.Op, valOff, tc.valOff)
		}
		if framed := Frame(nil, rec[HeaderLen:]); !bytes.Equal(framed, rec) {
			t.Errorf("Frame of the payload differs from AppendRecord: %x", framed)
		}
		m, off, err := DecodeMutation(rec[HeaderLen:])
		if err != nil || off != tc.valOff {
			t.Fatalf("decode: %+v off=%d err=%v", m, off, err)
		}
		want := tc.m
		if want.Op == OpDrop {
			want.CKey = ""
		}
		if m.Op != want.Op || m.Table != want.Table || m.PKey != want.PKey || m.CKey != want.CKey || !bytes.Equal(m.Value, want.Value) {
			t.Errorf("decoded %+v, want %+v", m, want)
		}
		if m.Op == OpPut && !bytes.Equal(rec[off:], want.Value) {
			t.Errorf("valOff %d does not point at the value", off)
		}
	}
}

func TestDecodeMutationRejectsMalformed(t *testing.T) {
	good, _ := Mutation{Op: OpPut, Table: "t", PKey: "p", CKey: "c", Value: []byte("vv")}.AppendRecord(nil)
	payload := good[HeaderLen:]
	for cut := 0; cut < len(payload); cut++ {
		if _, _, err := DecodeMutation(payload[:cut]); err == nil {
			t.Errorf("payload cut to %d bytes decoded", cut)
		}
	}
	bad := append([]byte(nil), payload...)
	bad[0] = 9
	if _, _, err := DecodeMutation(bad); err == nil {
		t.Error("unknown op decoded")
	}
}

// TestTornTailEveryOffset cuts the final segment at every byte of its
// last record: reopening must yield exactly the records before it and
// leave the file cut back to them, ready for the next append.
func TestTornTailEveryOffset(t *testing.T) {
	recs := [][]byte{
		Frame(nil, []byte("first")),
		Frame(nil, []byte("second record")),
		Frame(nil, bytes.Repeat([]byte("x"), 40)),
	}
	prefix := len(recs[0]) + len(recs[1])
	for cut := prefix; cut < prefix+len(recs[2]); cut++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "seg-00000001.log")
		if err := os.WriteFile(path, bytes.Join(recs, nil)[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l := openLog(t, dir, 1<<20)
		got, _ := payloads(t, l)
		if len(got) != 2 || got[0] != "first" || got[1] != "second record" {
			t.Fatalf("cut at %d: replayed %q", cut, got)
		}
		if fi, _ := os.Stat(path); fi.Size() != int64(prefix) {
			t.Fatalf("cut at %d: file is %d bytes, want the %d acknowledged", cut, fi.Size(), prefix)
		}
		if _, off, err := l.Append(recs[2]); err != nil || off != int64(prefix) {
			t.Fatalf("cut at %d: append after recovery at %d, %v", cut, off, err)
		}
		l.Close()
		if got, _ := payloads(t, openLog(t, dir, 1<<20)); len(got) != 3 {
			t.Fatalf("cut at %d: %d records after re-append", cut, len(got))
		}
	}
}

func TestFlippedByteIsTornInFinalCorruptElsewhere(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, 32)
	for i := 0; i < 4; i++ { // 28-byte records: one per segment
		if _, _, err := l.Append(Frame(nil, []byte(fmt.Sprintf("record-%013d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 4 {
		t.Fatalf("%d segments, want 4", l.Len())
	}
	l.Close()
	flip := func(id int) {
		path := filepath.Join(dir, segmentName("seg", id))
		data, _ := os.ReadFile(path)
		data[len(data)-1] ^= 0xff
		os.WriteFile(path, data, 0o644)
	}
	flip(4)
	got, _ := payloads(t, openLog(t, dir, 32))
	if len(got) != 3 {
		t.Fatalf("bad checksum in the final segment: replayed %d records, want 3", len(got))
	}
	flip(2)
	l = openLog(t, dir, 32)
	err := l.Scan(func(*Segment, int64, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad checksum in a middle segment: %v, want ErrCorrupt", err)
	}
	if fi, _ := os.Stat(filepath.Join(dir, segmentName("seg", 2))); fi.Size() != 28 {
		t.Fatalf("corrupt middle segment was cut to %d bytes", fi.Size())
	}
}

// A record that passes its checksum but that the caller rejects is never
// a torn write: the scan fails and the file keeps every byte.
func TestUndecodableRecordIsFatalNotTruncated(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, 1<<20)
	l.Append(Frame(nil, []byte("ok")))
	l.Append(Frame(nil, []byte("from the future")))
	size := l.Active().Size()
	refuse := errors.New("unknown op")
	err := l.Scan(func(_ *Segment, _ int64, p []byte) error {
		if string(p) != "ok" {
			return refuse
		}
		return nil
	})
	if !errors.Is(err, refuse) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan error = %v", err)
	}
	if fi, _ := os.Stat(l.Active().Path()); fi.Size() != size {
		t.Fatalf("undecodable record truncated: %d -> %d bytes", size, fi.Size())
	}
}

func TestOversizedLengthPrefixDoesNotAllocate(t *testing.T) {
	// A header claiming more than the file holds must stop the scan
	// before the payload buffer is sized from it.
	data := []byte{0xff, 0xff, 0xff, 0x3f, 0, 0, 0, 0, 1, 2, 3}
	allocs := testing.AllocsPerRun(10, func() {
		valid, err := Scan(bytes.NewReader(data), int64(len(data)), func(int64, []byte) error { return nil })
		if valid != 0 || err != nil {
			t.Fatalf("valid=%d err=%v", valid, err)
		}
	})
	if allocs > 2 { // the reader and the closure, never a gigabyte
		t.Fatalf("%v allocations scanning an oversized prefix", allocs)
	}
}

func TestRotateDropRemoveTruncate(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, 80) // two 34-byte records per segment
	for i := 0; i < 10; i++ {
		if _, _, err := l.Append(Frame(nil, []byte(fmt.Sprintf("record-%02d-padding-padding", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 5 || l.Active().ID() != 5 {
		t.Fatalf("%d segments, active %d; want 5 and 5", l.Len(), l.Active().ID())
	}
	if l.Unsynced() == 0 {
		t.Fatal("appends since rotation not counted as unsynced")
	}
	if err := l.Sync(); err != nil || l.Unsynced() != 0 {
		t.Fatalf("sync: %v, %d unsynced", err, l.Unsynced())
	}
	// Dropping the oldest segments leaves the active one in place.
	if err := l.Remove(l.Segments()[:4]); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 || l.Active().ID() != 5 {
		t.Fatalf("after drops: %d segments, active %d", l.Len(), l.Active().ID())
	}
	// Remove takes segments out of the middle or the end; the highest
	// survivor becomes active (how a failed compaction backs out).
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(l.Segments()[1:]); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 || l.Active().ID() != 5 {
		t.Fatalf("after remove: %d segments, active %d", l.Len(), l.Active().ID())
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "seg-*.log")); len(names) != 1 {
		t.Fatalf("files left on disk: %v", names)
	}
	if err := l.Active().Truncate(0); err != nil || l.Active().Size() != 0 {
		t.Fatalf("truncate active: %v, size %d", err, l.Active().Size())
	}
	l.Close()
	if got, ids := payloads(t, openLog(t, dir, 80)); len(got) != 0 || len(ids) != 0 {
		t.Fatalf("truncated log replays %q", got)
	}
}

func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"seg-1.log", "seg-0000000x.log", "wal-00000007.log", "seg-00000003.log.tmp", "LOCK"} {
		os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644)
	}
	os.WriteFile(filepath.Join(dir, "seg-00000003.log"), Frame(nil, []byte("three")), 0o644)
	l := openLog(t, dir, 64)
	got, ids := payloads(t, l)
	if len(got) != 1 || got[0] != "three" || ids[0] != 3 {
		t.Fatalf("replayed %q from segments %v", got, ids)
	}
	if dirty, err := hasSegments(dir, "seg"); !dirty || err != nil {
		t.Fatalf("hasSegments = %v, %v", dirty, err)
	}
	if dirty, err := hasSegments(filepath.Join(dir, "missing"), "seg"); dirty || err != nil {
		t.Fatalf("hasSegments of a missing dir = %v, %v", dirty, err)
	}
}

func TestSnapshotCopyTo(t *testing.T) {
	l := openLog(t, t.TempDir(), 48)
	for i := 0; i < 5; i++ {
		l.Append(Frame(nil, []byte(fmt.Sprintf("snapshotted-%02d", i))))
	}
	want, _ := payloads(t, l)
	snap := l.Snapshot()
	l.Append(Frame(nil, []byte("after the snapshot"))) // not part of the copy

	target := filepath.Join(t.TempDir(), "backup")
	if err := snap.CopyTo(target); err != nil {
		t.Fatal(err)
	}
	got, _ := payloads(t, openLog(t, target, 48))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("copy replays %q, want %q", got, want)
	}
	// A target that already holds segments is refused untouched.
	before, _ := filepath.Glob(filepath.Join(target, "*"))
	if err := snap.CopyTo(target); err == nil {
		t.Fatal("copy into a dirty target succeeded")
	}
	if after, _ := filepath.Glob(filepath.Join(target, "*")); len(after) != len(before) {
		t.Fatalf("refused copy changed the target: %v -> %v", before, after)
	}
}

func TestSingleFileSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node-000.hints")
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"a", "bb"} {
		if _, err := seg.Append(Frame(nil, []byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Sync(); err != nil {
		t.Fatal(err)
	}
	seg.Close()
	seg, err = OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	var got []string
	if err := seg.Scan(true, func(_ int64, p []byte) error { got = append(got, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[a bb]" {
		t.Fatalf("replayed %q", got)
	}
	if err := seg.Truncate(0); err != nil || seg.Size() != 0 {
		t.Fatalf("truncate: %v size %d", err, seg.Size())
	}
}

// I/O failures must come back as errors naming the file, never as a
// silently short log. Closed handles stand in for a failing device.
func TestIOErrorsSurface(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, 1<<20)
	rec := Frame(nil, []byte("payload"))
	if _, _, err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	snap := l.Snapshot()
	l.Close()
	if _, _, err := l.Append(rec); err == nil {
		t.Error("append to a closed segment succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Error("sync of a closed segment succeeded")
	}
	if err := l.Rotate(); err == nil {
		t.Error("rotate off a closed segment succeeded")
	}
	if err := l.Active().Truncate(0); err == nil {
		t.Error("truncate of a closed segment succeeded")
	}
	if err := l.Scan(func(*Segment, int64, []byte) error { return nil }); err == nil {
		t.Error("scan of a closed segment succeeded")
	}
	target := filepath.Join(t.TempDir(), "backup")
	if err := snap.CopyTo(target); err == nil {
		t.Error("copy from a closed segment succeeded")
	}
	if names, _ := filepath.Glob(filepath.Join(target, "*")); len(names) != 0 {
		t.Errorf("failed copy left %v behind", names)
	}

	file := filepath.Join(dir, "not-a-dir")
	os.WriteFile(file, nil, 0o644)
	if _, err := Open(file, "seg", 1<<20); err == nil {
		t.Error("open of a log rooted at a regular file succeeded")
	}
	if _, err := OpenSegment(filepath.Join(file, "x.hints")); err == nil {
		t.Error("open of a segment under a regular file succeeded")
	}
	if _, err := hasSegments(file, "seg"); err == nil {
		t.Error("listing a regular file as a directory succeeded")
	}
}
