// Package codec provides the binary wire format used to persist deltas,
// node states and eventlists in the key-value store (the paper serialized
// with Python Pickle; we use a compact varint-based format so that stored
// byte sizes — which drive the simulated I/O cost model — are realistic).
// Every blob starts with a one-byte header that records whether the
// payload is gzip-compressed, so compressed and uncompressed indexes can
// coexist (paper Figure 13a compares both), and whether a micro-delta
// row carries the id index that lets a point read decode one state
// (row.go).
package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"hgs/internal/graph"
	"hgs/internal/temporal"
)

// Header flags. The low bit says how the payload is framed; flagIndexed
// marks a micro-delta row (EncodeDelta), which leads with its id index,
// and no other blob.
const (
	flagPlain   byte = 0x00
	flagGzip    byte = 0x01
	flagIndexed byte = 0x02
)

var (
	// ErrCorrupt reports a malformed or truncated blob.
	ErrCorrupt = errors.New("codec: corrupt blob")
)

// Codec encodes and decodes store blobs. The zero value is an
// uncompressed codec; set Compress for gzip framing.
type Codec struct {
	// Compress enables gzip compression of encoded payloads.
	Compress bool
}

// buffer wraps the low-level primitives of the wire format, plus the
// sort buffers encoders reuse across the nodes and attribute maps of one
// blob (and, through the pool, across blobs).
type buffer struct {
	buf   bytes.Buffer
	ids   []graph.NodeID
	edges []graph.EdgeKey
	keys  []string
	lens  []int
}

func (b *buffer) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b.buf.Write(tmp[:n])
}

func (b *buffer) varint(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	b.buf.Write(tmp[:n])
}

func (b *buffer) str(s string) {
	b.uvarint(uint64(len(s)))
	b.buf.WriteString(s)
}

func (b *buffer) bool(v bool) {
	if v {
		b.buf.WriteByte(1)
	} else {
		b.buf.WriteByte(0)
	}
}

// reader reads what buffer writes, and only that: every value has one
// encoding (the shortest varint, whose last byte is not zero; a bool as
// 0 or 1; attribute keys ascending), so a decoded state encodes back to
// the bytes it came from.
type reader struct {
	data []byte
	pos  int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 || n > 1 && r.data[r.pos+n-1] == 0 {
		return 0, ErrCorrupt
	}
	r.pos += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 || n > 1 && r.data[r.pos+n-1] == 0 {
		return 0, ErrCorrupt
	}
	r.pos += n
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if r.pos+int(n) > len(r.data) {
		return "", ErrCorrupt
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

func (r *reader) bool() (bool, error) {
	if r.pos >= len(r.data) {
		return false, ErrCorrupt
	}
	v := r.data[r.pos]
	if v > 1 {
		return false, ErrCorrupt
	}
	r.pos++
	return v == 1, nil
}

// count validates a decoded element count against the bytes remaining
// (every element takes at least one byte), so a corrupt varint cannot
// drive a huge preallocation.
func (r *reader) count() (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.data)-r.pos) {
		return 0, fmt.Errorf("%w: count %d exceeds remaining %d bytes", ErrCorrupt, n, len(r.data)-r.pos)
	}
	return int(n), nil
}

// encodeAttrs writes attribute maps with sorted keys for deterministic
// output (stable blob sizes and content-addressable tests); decodeAttrs
// accepts no other order.
func encodeAttrs(b *buffer, a graph.Attrs) {
	b.uvarint(uint64(len(a)))
	if len(a) == 0 {
		return
	}
	keys := b.keys[:0]
	for k := range a {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b.str(k)
		b.str(a[k])
	}
	b.keys = keys
}

func decodeAttrs(r *reader) (graph.Attrs, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	a := make(graph.Attrs, n)
	var prev string
	for i := 0; i < n; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		if i > 0 && k <= prev {
			return nil, fmt.Errorf("%w: attribute keys not ascending", ErrCorrupt)
		}
		v, err := r.str()
		if err != nil {
			return nil, err
		}
		a[k], prev = v, k
	}
	return a, nil
}

func encodeNodeState(b *buffer, ns *graph.NodeState) {
	b.varint(int64(ns.ID))
	encodeAttrs(b, ns.Attrs)
	// Deterministic edge order: by (Other, Out).
	keys := b.edges[:0]
	for k := range ns.Edges {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, graph.CompareEdgeKeys)
	b.uvarint(uint64(len(keys)))
	for _, k := range keys {
		b.varint(int64(k.Other))
		b.bool(k.Out)
		encodeAttrs(b, ns.Edges[k].Attrs)
	}
	b.edges = keys
}

func decodeNodeState(r *reader) (*graph.NodeState, error) {
	id, err := r.varint()
	if err != nil {
		return nil, err
	}
	attrs, err := decodeAttrs(r)
	if err != nil {
		return nil, err
	}
	ns := &graph.NodeState{ID: graph.NodeID(id), Attrs: attrs}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n > 0 {
		ns.Edges = make(map[graph.EdgeKey]*graph.EdgeState, n)
		slab := make([]graph.EdgeState, n)
		for i := 0; i < n; i++ {
			other, err := r.varint()
			if err != nil {
				return nil, err
			}
			out, err := r.bool()
			if err != nil {
				return nil, err
			}
			ea, err := decodeAttrs(r)
			if err != nil {
				return nil, err
			}
			slab[i].Attrs = ea
			ns.Edges[graph.EdgeKey{Other: graph.NodeID(other), Out: out}] = &slab[i]
		}
	}
	return ns, nil
}

// EncodeEvents serializes an event slice; times are delta-encoded against
// the previous event, which makes dense eventlists very compact.
func (c Codec) EncodeEvents(events []graph.Event) ([]byte, error) {
	b := getEncBuffer()
	defer putEncBuffer(b)
	b.uvarint(uint64(len(events)))
	var prev temporal.Time
	for _, e := range events {
		b.varint(int64(e.Time - prev))
		prev = e.Time
		b.buf.WriteByte(byte(e.Kind))
		b.varint(int64(e.Node))
		b.varint(int64(e.Other))
		b.str(e.Key)
		b.str(e.Value)
	}
	return c.frame(flagPlain, b.buf.Bytes())
}

// DecodeEvents parses a blob produced by EncodeEvents.
func (c Codec) DecodeEvents(blob []byte) ([]graph.Event, error) {
	data, release, err := unframe(blob, flagPlain)
	if err != nil {
		return nil, err
	}
	defer release()
	r := &reader{data: data}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	events := make([]graph.Event, 0, n)
	var prev temporal.Time
	for i := 0; i < n; i++ {
		dt, err := r.varint()
		if err != nil {
			return nil, err
		}
		prev += temporal.Time(dt)
		if r.pos >= len(r.data) {
			return nil, ErrCorrupt
		}
		kind := graph.EventKind(r.data[r.pos])
		r.pos++
		node, err := r.varint()
		if err != nil {
			return nil, err
		}
		other, err := r.varint()
		if err != nil {
			return nil, err
		}
		key, err := r.str()
		if err != nil {
			return nil, err
		}
		val, err := r.str()
		if err != nil {
			return nil, err
		}
		events = append(events, graph.Event{
			Time: prev, Kind: kind,
			Node: graph.NodeID(node), Other: graph.NodeID(other),
			Key: key, Value: val,
		})
	}
	return events, nil
}

// EncodeNodeState serializes a single node state.
func (c Codec) EncodeNodeState(ns *graph.NodeState) ([]byte, error) {
	b := getEncBuffer()
	defer putEncBuffer(b)
	encodeNodeState(b, ns)
	return c.frame(flagPlain, b.buf.Bytes())
}

// StateSize returns the length of node state ns's encoding, unframed and
// uncompressed — what EncodeNodeState frames — without encoding it.
func StateSize(ns *graph.NodeState) int {
	n := varintLen(int64(ns.ID)) + attrsSize(ns.Attrs) + uvarintLen(uint64(len(ns.Edges)))
	for k, es := range ns.Edges {
		n += varintLen(int64(k.Other)) + 1 + attrsSize(es.Attrs)
	}
	return n
}

// attrsSize returns the length of encodeAttrs(a).
func attrsSize(a graph.Attrs) int {
	n := uvarintLen(uint64(len(a)))
	for k, v := range a {
		n += uvarintLen(uint64(len(k))) + len(k) + uvarintLen(uint64(len(v))) + len(v)
	}
	return n
}

func uvarintLen(v uint64) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], v)
}

func varintLen(v int64) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutVarint(tmp[:], v)
}

// DecodeNodeState parses a blob produced by EncodeNodeState.
func (c Codec) DecodeNodeState(blob []byte) (*graph.NodeState, error) {
	data, release, err := unframe(blob, flagPlain)
	if err != nil {
		return nil, err
	}
	defer release()
	return decodeNodeState(&reader{data: data})
}

// frame prepends the header byte — format (flagPlain or flagIndexed)
// plus the compression bit when enabled — to the payload, which is the
// concatenation of parts, and compresses it when enabled. The returned
// slice is always freshly allocated (callers hand it to the store); only
// the compression machinery is pooled.
func (c Codec) frame(format byte, parts ...[]byte) ([]byte, error) {
	if !c.Compress {
		n := 1
		for _, p := range parts {
			n += len(p)
		}
		out := make([]byte, 0, n)
		out = append(out, format|flagPlain)
		for _, p := range parts {
			out = append(out, p...)
		}
		return out, nil
	}
	var zbuf bytes.Buffer
	zbuf.WriteByte(format | flagGzip)
	zw := getGzipWriter(&zbuf)
	defer putGzipWriter(zw)
	for _, p := range parts {
		if _, err := zw.Write(p); err != nil {
			return nil, fmt.Errorf("codec: gzip write: %w", err)
		}
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("codec: gzip close: %w", err)
	}
	return zbuf.Bytes(), nil
}

// unframe strips the header of a blob framed as format (flagIndexed
// for micro-delta rows, flagPlain for every other blob) and
// decompresses as needed; decode works regardless of the codec's own
// Compress flag. A blob framed otherwise is corrupt, a micro-delta row
// without its id index included. The returned data may live in a pooled
// decompression arena: the caller must invoke release once nothing
// references it — decode paths satisfy that by copying every byte they
// keep (strings, parsed numbers) out of the scratch before their
// deferred release runs.
func unframe(blob []byte, format byte) (data []byte, release func(), err error) {
	if len(blob) == 0 {
		return nil, nil, ErrCorrupt
	}
	if blob[0]&flagIndexed != format {
		return nil, nil, fmt.Errorf("%w: unknown header 0x%02x", ErrCorrupt, blob[0])
	}
	switch blob[0] &^ flagIndexed {
	case flagPlain:
		return blob[1:], releaseNone, nil
	case flagGzip:
		zr, err := getGzipReader(blob[1:])
		if err != nil {
			return nil, nil, fmt.Errorf("codec: gzip open: %w", err)
		}
		arena := getDecompBuffer()
		if _, err := io.Copy(arena, zr); err != nil {
			putGzipReader(zr)
			putDecompBuffer(arena)
			return nil, nil, fmt.Errorf("codec: gzip read: %w", err)
		}
		putGzipReader(zr)
		return arena.Bytes(), func() { putDecompBuffer(arena) }, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown header 0x%02x", ErrCorrupt, blob[0])
	}
}
