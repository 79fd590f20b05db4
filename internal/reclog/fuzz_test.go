package reclog

import (
	"bytes"
	"testing"
)

// FuzzScan feeds arbitrary bytes to the one record scanner (and every
// payload it accepts to the one mutation decoder). Beyond "no panic":
// the records it yields are contiguous from offset 0, each re-frames to
// exactly the input bytes it was read from, none is larger than the
// input (the length prefix never sizes a buffer on its own), and a
// decoded put's value offset points at its value.
//
// Seed corpus in testdata/fuzz/FuzzScan/; `make fuzz` runs it briefly.
func FuzzScan(f *testing.F) {
	put, _ := Mutation{Op: OpPut, Table: "deltas", PKey: "t0/s1", CKey: "d3/p0", Value: []byte("value")}.AppendRecord(nil)
	del, _ := Mutation{Op: OpDel, Table: "deltas", PKey: "t0/s1", CKey: "d3/p0"}.AppendRecord(put)
	f.Add([]byte{})
	f.Add(put)
	f.Add(del)                                        // two records
	f.Add(del[:len(del)-3])                           // torn tail
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // length past the guard
	f.Fuzz(func(t *testing.T, data []byte) {
		next := int64(0)
		valid, err := Scan(bytes.NewReader(data), int64(len(data)), func(off int64, payload []byte) error {
			if off != next {
				t.Fatalf("record at %d, expected the next one at %d", off, next)
			}
			if len(payload) > len(data) {
				t.Fatalf("%d-byte payload from %d bytes of input", len(payload), len(data))
			}
			rec := Frame(nil, payload)
			if end := off + int64(len(rec)); end > int64(len(data)) || !bytes.Equal(rec, data[off:end]) {
				t.Fatalf("record at %d does not re-frame to the input bytes", off)
			}
			next = off + int64(len(rec))
			if m, valOff, err := DecodeMutation(payload); err == nil && m.Op == OpPut {
				if !bytes.Equal(rec[valOff:valOff+len(m.Value)], m.Value) || valOff+len(m.Value) != len(rec) {
					t.Fatalf("valOff %d does not locate the %d-byte value in a %d-byte record", valOff, len(m.Value), len(rec))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scan of an in-memory reader failed: %v", err)
		}
		if valid != next || valid > int64(len(data)) {
			t.Fatalf("valid = %d after records ending at %d (input %d bytes)", valid, next, len(data))
		}
	})
}
