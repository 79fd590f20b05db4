package codec

import (
	"testing"

	"hgs/internal/delta"
	"hgs/internal/graph"
)

// Layer microbenchmarks of the delta wire format:
//
//	go test ./internal/codec -run '^$' -bench . -benchmem
//
// The fixture is one micro-delta as the index build writes it: node
// states with attributes and attributed edges, plus a tombstone.
func benchDelta(b *testing.B) (*delta.Delta, []byte) {
	d := randDelta(7, 400)
	blob, err := Codec{}.EncodeDelta(d)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	return d, blob
}

// BenchmarkEncodeDelta is one micro-delta serialization (build path):
// fresh, of states built in memory, which it encodes; decoded, of the
// same states decoded from the row and frozen with their bodies as the
// fetch layer does, which it copies (an Append rewriting states it read).
func BenchmarkEncodeDelta(b *testing.B) {
	fresh, blob := benchDelta(b)
	row, err := Codec{}.ParseDelta(blob)
	if err != nil {
		b.Fatal(err)
	}
	decoded := delta.New()
	for i := range row.Len() {
		ns, err := row.State(i)
		if err != nil {
			b.Fatal(err)
		}
		ns.FreezeEncoded(row.Body(i))
		decoded.Put(ns)
	}
	for _, id := range row.Tombstones() {
		decoded.MarkDeleted(id)
	}
	for _, c := range []struct {
		name string
		d    *delta.Delta
	}{{"fresh", fresh}, {"decoded", decoded}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (Codec{}).EncodeDelta(c.d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeDelta is one micro-delta parse (cold read path).
func BenchmarkDecodeDelta(b *testing.B) {
	_, blob := benchDelta(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Codec{}).DecodeDelta(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeDeltaState decodes one node's state out of the same
// micro-delta through the row's id index (a cold point read's decode):
// the node of highest degree, the smallest id among equals, so every run
// decodes the same state.
func BenchmarkDecodeDeltaState(b *testing.B) {
	d, blob := benchDelta(b)
	id, most := graph.NodeID(0), -1
	for nid, ns := range d.Nodes {
		if n := ns.Degree(); n > most || n == most && nid < id {
			id, most = nid, n
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := (Codec{}).DecodeDeltaState(blob, id); err != nil || !found {
			b.Fatal(found, err)
		}
	}
}
