// Package reclog is the one on-disk record log under the durable
// layers: disklog's segments and the cluster's hint log are files of
// the same records,
//
//	record := len:u32le crc:u32le payload
//
// where crc is the IEEE CRC32 of the payload. This package owns the
// frame (Frame, Scan), the recovery policy (Segment.Scan: a record that
// fails validation at the tail of the final segment is a torn write and
// is truncated away with an fsync; anywhere else it is ErrCorrupt; a
// record that passes the checksum but that the caller cannot decode is
// always fatal, never truncated — it is version skew or a writer bug,
// and cutting it off would silently delete acknowledged data), the
// numbered-segment file set (Log: <prefix>-%08d.log, ascending, the last
// one active), and the put/delete/drop payload of disklog records
// (Mutation). What a record means stays with the caller.
//
// Nothing here is synchronized: each consumer serializes access under
// the lock it already holds.
package reclog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// HeaderLen is the fixed record prelude: payload length and checksum.
const HeaderLen = 8

// maxRecordBytes bounds a payload length read from disk so that a
// corrupt length prefix cannot drive a giant allocation during a scan.
const maxRecordBytes = 1 << 30

// ErrCorrupt reports a record that failed validation where recovery by
// truncation is not safe: the bytes after it are acknowledged data, not
// a torn tail.
var ErrCorrupt = errors.New("reclog: corrupt record in non-final segment")

// Frame appends payload to dst as one record.
func Frame(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, HeaderLen)...)
	dst = append(dst, payload...)
	seal(dst[start:])
	return dst
}

// seal fills in the header of a record whose payload is already in place.
func seal(rec []byte) {
	payload := rec[HeaderLen:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
}

// Scan reads records from r, which holds size bytes, calling fn with the
// offset and payload of each one that validates. The payload buffer is
// reused between calls. valid is the length of the prefix made of whole,
// checksummed records; valid < size means the bytes at valid are not
// one. An error is an I/O failure or fn's own (wrapped with the offset).
func Scan(r io.Reader, size int64, fn func(off int64, payload []byte) error) (valid int64, err error) {
	var (
		header [HeaderLen]byte
		buf    []byte
	)
	for off := int64(0); ; {
		if size-off < HeaderLen {
			return off, nil
		}
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return off, err
		}
		plen := int64(binary.LittleEndian.Uint32(header[0:4]))
		if plen > maxRecordBytes || plen > size-off-HeaderLen {
			return off, nil
		}
		if int64(cap(buf)) < plen {
			buf = make([]byte, plen)
		}
		payload := buf[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, err
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(header[4:8]) {
			return off, nil
		}
		if err := fn(off, payload); err != nil {
			return off, fmt.Errorf("record at offset %d: %w", off, err)
		}
		off += HeaderLen + plen
	}
}

// Segment is one open record file.
type Segment struct {
	id   int
	path string
	f    *os.File
	size int64
}

// OpenSegment opens (or creates) a record file that is a whole log on
// its own; files of a Log are opened by the Log.
func OpenSegment(path string) (*Segment, error) { return openSegment(0, path) }

func openSegment(id int, path string) (*Segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("reclog: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("reclog: %w", err)
	}
	return &Segment{id: id, path: path, f: f, size: st.Size()}, nil
}

// ID is the segment's number within its Log.
func (s *Segment) ID() int { return s.id }

// Path is the segment's file path.
func (s *Segment) Path() string { return s.path }

// Size is the length of the segment's records in bytes.
func (s *Segment) Size() int64 { return s.size }

// ReadAt reads record bytes back (io.ReaderAt).
func (s *Segment) ReadAt(p []byte, off int64) (int, error) { return s.f.ReadAt(p, off) }

// Scan calls fn for every record in order and applies the recovery
// policy to what follows the last valid one: in the final segment of a
// log it is a torn write and is truncated away, otherwise ErrCorrupt.
func (s *Segment) Scan(final bool, fn func(off int64, payload []byte) error) error {
	r := bufio.NewReaderSize(io.NewSectionReader(s.f, 0, s.size), 64<<10)
	valid, err := Scan(r, s.size, fn)
	if err != nil {
		return fmt.Errorf("reclog: scan %s: %w", s.path, err)
	}
	if valid == s.size {
		return nil
	}
	if !final {
		return fmt.Errorf("%w: %s at offset %d", ErrCorrupt, s.path, valid)
	}
	return s.Truncate(valid)
}

// Append writes one framed record at the end of the segment and returns
// the offset it starts at.
func (s *Segment) Append(rec []byte) (int64, error) {
	off := s.size
	if _, err := s.f.WriteAt(rec, off); err != nil {
		return off, fmt.Errorf("reclog: append %s: %w", s.path, err)
	}
	s.size += int64(len(rec))
	return off, nil
}

// Sync makes every appended record durable.
func (s *Segment) Sync() error {
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("reclog: sync %s: %w", s.path, err)
	}
	return nil
}

// Truncate cuts the segment back to size bytes and fsyncs the cut.
func (s *Segment) Truncate(size int64) error {
	if err := s.f.Truncate(size); err != nil {
		return fmt.Errorf("reclog: truncate %s: %w", s.path, err)
	}
	s.size = size
	return s.Sync()
}

// Close releases the file handle.
func (s *Segment) Close() error { return s.f.Close() }

// Log is an append log split across numbered segment files in one
// directory. The last segment is active: it takes appends until one
// would push it past the segment size, then the log rotates.
type Log struct {
	dir, prefix string
	segBytes    int64
	segs        []*Segment
	unsynced    int64 // bytes appended since the last fsync
}

// Open opens (or creates) the log of prefix-named segments in dir. It
// does not read them; call Scan before appending.
func Open(dir, prefix string, segBytes int64) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("reclog: %w", err)
	}
	l := &Log{dir: dir, prefix: prefix, segBytes: segBytes}
	ids, err := listSegments(dir, prefix)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if err := l.addSegment(id); err != nil {
			l.Close()
			return nil, err
		}
	}
	if len(ids) == 0 {
		if err := l.createSegment(1); err != nil {
			l.Close()
			return nil, err
		}
	}
	return l, nil
}

func segmentName(prefix string, id int) string { return fmt.Sprintf("%s-%08d.log", prefix, id) }

// listSegments returns the ascending ids of prefix's segment files in
// dir; a missing directory holds none.
func listSegments(dir, prefix string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reclog: %w", err)
	}
	var ids []int
	for _, e := range entries {
		num := strings.TrimSuffix(strings.TrimPrefix(e.Name(), prefix+"-"), ".log")
		if id, err := strconv.Atoi(num); err == nil && segmentName(prefix, id) == e.Name() {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// hasSegments reports whether dir already holds segment files of
// prefix — what a backup target must not.
func hasSegments(dir, prefix string) (bool, error) {
	ids, err := listSegments(dir, prefix)
	return len(ids) > 0, err
}

func (l *Log) addSegment(id int) error {
	seg, err := openSegment(id, filepath.Join(l.dir, segmentName(l.prefix, id)))
	if err != nil {
		return err
	}
	l.segs = append(l.segs, seg)
	return nil
}

// createSegment starts segment id and makes its directory entry durable.
func (l *Log) createSegment(id int) error {
	if err := l.addSegment(id); err != nil {
		return err
	}
	return syncDir(l.dir)
}

// syncDir fsyncs a directory so file creation and removal in it survive
// a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("reclog: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("reclog: sync dir %s: %w", dir, err)
	}
	return nil
}

// Segments returns the log's segments in ascending id order. The slice
// is the caller's; the segments are the log's.
func (l *Log) Segments() []*Segment { return append([]*Segment(nil), l.segs...) }

// Len is the number of segment files.
func (l *Log) Len() int { return len(l.segs) }

// Active is the segment taking appends.
func (l *Log) Active() *Segment { return l.segs[len(l.segs)-1] }

// Unsynced is the number of bytes appended since the last fsync; the
// caller decides when that is enough to call Sync.
func (l *Log) Unsynced() int64 { return l.unsynced }

// Scan replays the whole log front to back, truncating a torn tail of
// the final segment (see Segment.Scan).
func (l *Log) Scan(fn func(seg *Segment, off int64, payload []byte) error) error {
	for i, seg := range l.segs {
		err := seg.Scan(i == len(l.segs)-1, func(off int64, payload []byte) error { return fn(seg, off, payload) })
		if err != nil {
			return err
		}
	}
	return nil
}

// Append writes one framed record to the active segment, rotating first
// if it would overflow, and returns where the record landed. On failure
// the returned position is where it would have.
func (l *Log) Append(rec []byte) (*Segment, int64, error) {
	active := l.Active()
	if active.size > 0 && active.size+int64(len(rec)) > l.segBytes {
		if err := l.Rotate(); err != nil {
			return active, active.size, err
		}
		active = l.Active()
	}
	off, err := active.Append(rec)
	if err == nil {
		l.unsynced += int64(len(rec))
	}
	return active, off, err
}

// Rotate fsyncs the active segment and starts the next one.
func (l *Log) Rotate() error {
	if err := l.Active().Sync(); err != nil {
		return err
	}
	l.unsynced = 0
	return l.createSegment(l.Active().id + 1)
}

// Sync makes every appended record durable (earlier segments were
// fsynced when the log rotated off them).
func (l *Log) Sync() error {
	if l.unsynced == 0 {
		return nil
	}
	if err := l.Active().Sync(); err != nil {
		return err
	}
	l.unsynced = 0
	return nil
}

// Remove closes and deletes the given segments of the log. At least one
// segment must remain; the highest remaining one is active.
func (l *Log) Remove(segs []*Segment) error {
	if len(segs) == 0 {
		return nil
	}
	gone := make(map[*Segment]bool, len(segs))
	var errs error
	for _, seg := range segs {
		gone[seg] = true
		seg.f.Close()
		if err := os.Remove(seg.path); err != nil {
			errs = errors.Join(errs, fmt.Errorf("reclog: %w", err))
		}
	}
	keep := make([]*Segment, 0, len(l.segs))
	for _, seg := range l.segs {
		if !gone[seg] {
			keep = append(keep, seg)
		}
	}
	l.segs = keep
	return errors.Join(errs, syncDir(l.dir))
}

// Close releases every file handle without syncing.
func (l *Log) Close() {
	for _, seg := range l.segs {
		seg.f.Close()
	}
}

// Snapshot is a log's segment set and sizes at one instant, for a
// backup that copies outside the owner's lock: appends past the
// captured sizes are simply not part of it. The owner must keep the
// captured segments from being removed until CopyTo returns.
type Snapshot struct {
	prefix string
	segs   []Segment
}

// Snapshot captures the current segments; Sync first if the copy must
// carry every acknowledged write.
func (l *Log) Snapshot() Snapshot {
	snap := Snapshot{prefix: l.prefix, segs: make([]Segment, len(l.segs))}
	for i, seg := range l.segs {
		snap.segs[i] = *seg
	}
	return snap
}

// CopyTo writes the captured bytes into dir (created if needed), which
// must not hold segments already, and fsyncs the copy. It opens as a
// normal log directory.
func (sn Snapshot) CopyTo(dir string) error {
	if dirty, err := hasSegments(dir, sn.prefix); err != nil {
		return err
	} else if dirty {
		return fmt.Errorf("reclog: backup target %s already holds %s segments", dir, sn.prefix)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("reclog: backup: %w", err)
	}
	for _, seg := range sn.segs {
		if err := copyFile(seg.f, seg.size, filepath.Join(dir, filepath.Base(seg.path))); err != nil {
			return err
		}
	}
	return syncDir(dir)
}

// copyFile copies the first size bytes of src into a fresh file at dst
// and fsyncs it. Reading through the open handle (not the path) keeps
// the copy consistent with the snapshot even if the file has grown
// since. A partial copy is removed on error; dst must not exist.
func copyFile(src *os.File, size int64, dst string) error {
	f, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("reclog: backup: %w", err)
	}
	_, err = io.Copy(f, io.NewSectionReader(src, 0, size))
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(dst)
		return fmt.Errorf("reclog: backup copy %s: %w", dst, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(dst)
		return fmt.Errorf("reclog: backup: %w", err)
	}
	return nil
}
