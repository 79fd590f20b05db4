package kvstore

// Durable hinted handoff. Every hint queued for a node is mirrored to a
// per-node append-only log under Config.HintDir, so the queue survives
// a process restart: hints pending at Open are replayed (stamp-guarded)
// straight into the node's engine before the cluster serves traffic,
// and the log is truncated whenever the in-memory queue fully drains
// (revive, fault-clear). The file is one internal/reclog segment — its
// record frame and torn-tail recovery — with the payload
//
//	[op byte][u32 len][table][u32 len][pkey][u32 len][ckey][u32 len][value]
//
// (little-endian). A torn tail is cut off on open — the tail hint was
// not acknowledged as hinted durably, and the write that queued it was
// already counted under-replicated, so dropping it is the crash
// semantics hints always had, just with a far smaller window. Appends
// fsync before returning: hints are rare (a replica was down), so the
// write path only pays the sync when already degraded.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"hgs/internal/reclog"
)

// hintFileName names node id's hint log inside Config.HintDir.
func hintFileName(id int) string { return fmt.Sprintf("node-%03d.hints", id) }

// hintLog is one node's durable hint queue. All methods are called with
// the owning node's hintMu held (append/reset) or during single-threaded
// open/teardown, so the type needs no lock of its own. seg is nil once
// a write has failed: in-memory hints still replay on revive; only
// restart durability degrades, matching the pre-log behavior rather
// than failing the write.
type hintLog struct {
	seg  *reclog.Segment
	path string
}

// openHintLog opens (creating if needed) the hint log at path and
// decodes its pending records, truncating a torn tail. The returned
// hints are in append order.
func openHintLog(path string) (*hintLog, []hint, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, err
	}
	seg, err := reclog.OpenSegment(path)
	if err != nil {
		return nil, nil, err
	}
	var pending []hint
	err = seg.Scan(true, func(_ int64, payload []byte) error {
		h, ok := decodeHint(payload)
		if !ok {
			return errors.New("malformed hint")
		}
		pending = append(pending, h)
		return nil
	})
	if err != nil {
		seg.Close()
		return nil, nil, err
	}
	return &hintLog{seg: seg, path: path}, pending, nil
}

// encodeHint serializes one hint payload.
func encodeHint(h hint) []byte {
	n := 1 + 4*4 + len(h.table) + len(h.pkey) + len(h.ckey) + len(h.value)
	out := make([]byte, 0, n)
	out = append(out, byte(h.op))
	for _, s := range []string{h.table, h.pkey, h.ckey} {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
		out = append(out, s...)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(h.value)))
	out = append(out, h.value...)
	return out
}

// decodeHint parses one hint payload, reporting malformed input.
func decodeHint(p []byte) (hint, bool) {
	var h hint
	if len(p) < 1 {
		return h, false
	}
	op := hintOp(p[0])
	if op > hintDrop {
		return h, false
	}
	h.op = op
	p = p[1:]
	next := func() ([]byte, bool) {
		if len(p) < 4 {
			return nil, false
		}
		n := binary.LittleEndian.Uint32(p)
		p = p[4:]
		if uint64(n) > uint64(len(p)) {
			return nil, false
		}
		b := p[:n]
		p = p[n:]
		return b, true
	}
	fields := make([][]byte, 4)
	for i := range fields {
		b, ok := next()
		if !ok {
			return h, false
		}
		fields[i] = b
	}
	if len(p) != 0 {
		return h, false
	}
	h.table = string(fields[0])
	h.pkey = string(fields[1])
	h.ckey = string(fields[2])
	if len(fields[3]) > 0 {
		h.value = append([]byte(nil), fields[3]...)
	}
	return h, true
}

// append durably records one queued hint.
func (l *hintLog) append(h hint) {
	if l.seg == nil {
		return
	}
	_, err := l.seg.Append(reclog.Frame(nil, encodeHint(h)))
	if err == nil {
		err = l.seg.Sync()
	}
	if err != nil {
		l.Close()
	}
}

// reset marks every record replayed: the in-memory queue drained, so
// the log restarts empty (no syscall when it already is — every drain
// after the first).
func (l *hintLog) reset() {
	if l.seg == nil || l.seg.Size() == 0 {
		return
	}
	if err := l.seg.Truncate(0); err != nil {
		l.Close()
	}
}

// Close releases the file handle.
func (l *hintLog) Close() error {
	if l.seg == nil {
		return nil
	}
	err := l.seg.Close()
	l.seg = nil
	return err
}

// removeFile closes the log and deletes it from disk (node retired).
func (l *hintLog) removeFile() {
	l.Close()
	os.Remove(l.path)
}

// attachHintLog opens node's durable hint log under cfg.HintDir. With
// replay set (cluster open), records pending from the previous process
// are applied stamp-guarded to the node's engine — the node starts
// live, so its missed mutations must land before traffic does. AddNode
// attaches without replay: a brand-new node has no legitimate pending
// hints, and a stale file left by an earlier incarnation of the id must
// not resurrect rows. Either way the log restarts empty.
func (c *Cluster) attachHintLog(node *storageNode, replay bool) error {
	hl, pending, err := openHintLog(filepath.Join(c.cfg.HintDir, hintFileName(node.id)))
	if err != nil {
		return fmt.Errorf("kvstore: hint log node %d: %w", node.id, err)
	}
	if replay {
		for _, h := range pending {
			replayHint(node.be, h)
		}
	}
	hl.reset()
	node.hlog = hl
	return nil
}
