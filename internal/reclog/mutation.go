package reclog

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Op is a Mutation's kind. The values are on disk.
type Op byte

const (
	OpPut  Op = 1
	OpDel  Op = 2
	OpDrop Op = 3
)

// Mutation is the record payload of disklog segments:
//
//	payload := op:byte str(table) str(pkey) [str(ckey)] [str(value)]
//	str     := uvarint(len) bytes
//
// ckey is present for put and delete, value only for put.
type Mutation struct {
	Op                Op
	Table, PKey, CKey string
	Value             []byte
}

func appendStr(buf []byte, v string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	return append(buf, v...)
}

// AppendRecord appends m to dst as one framed record, built in place.
// valOff is the offset of the value bytes within that record (puts
// only), so an index can point at them without decoding again.
func (m Mutation) AppendRecord(dst []byte) (out []byte, valOff int) {
	start := len(dst)
	dst = append(dst, make([]byte, HeaderLen)...)
	dst = append(dst, byte(m.Op))
	dst = appendStr(dst, m.Table)
	dst = appendStr(dst, m.PKey)
	if m.Op != OpDrop {
		dst = appendStr(dst, m.CKey)
	}
	if m.Op == OpPut {
		dst = binary.AppendUvarint(dst, uint64(len(m.Value)))
		valOff = len(dst) - start
		dst = append(dst, m.Value...)
	}
	seal(dst[start:])
	return dst, valOff
}

// DecodeMutation parses a record payload. m.Value aliases payload; copy
// it to keep it past the payload's lifetime. valOff is as in
// AppendRecord: relative to the framed record, header included.
func DecodeMutation(payload []byte) (m Mutation, valOff int, err error) {
	if len(payload) < 1 {
		return m, 0, errors.New("empty payload")
	}
	pos := 1
	// field reads one uvarint-prefixed byte string; after a failure it
	// keeps returning nothing, so the error is checked once at the end.
	field := func() []byte {
		v, n := binary.Uvarint(payload[pos:])
		if err != nil || n <= 0 || uint64(len(payload)-pos-n) < v {
			err = errors.New("field exceeds payload")
			return nil
		}
		pos += n + int(v)
		return payload[pos-int(v) : pos]
	}
	m.Op = Op(payload[0])
	m.Table = string(field())
	m.PKey = string(field())
	switch m.Op {
	case OpPut:
		m.CKey = string(field())
		m.Value = field()
		valOff = HeaderLen + pos - len(m.Value)
	case OpDel:
		m.CKey = string(field())
	case OpDrop:
	default:
		return m, 0, fmt.Errorf("unknown op 0x%02x", payload[0])
	}
	return m, valOff, err
}
