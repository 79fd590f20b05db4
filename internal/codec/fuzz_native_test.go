package codec

// Native fuzz targets for the framing and delta decoders. They encode
// properties beyond "no panic":
//
//   - error results carry no data: a failed unframe/decode must not
//     hand back bytes that alias a pooled scratch buffer;
//   - decoding is deterministic and release() is correctly paired:
//     decoding the same blob twice (with pool churn in between) yields
//     identical results, which fails if a decode path keeps a reference
//     into a released decompression arena;
//   - every state a row yields encodes back to its own body bytes, so
//     EncodeDelta may copy a decoded state's body instead of encoding it.
//
// Seed corpora live in testdata/fuzz/<Target>/; CI runs each target
// briefly (-fuzz=<Target> -fuzztime=10s) on top of the regular
// regression replay that plain `go test` performs.

import (
	"bytes"
	"reflect"
	"testing"
)

func FuzzUnframe(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{flagPlain})
	f.Add(append([]byte{flagPlain}, []byte("hello world")...))
	f.Add([]byte{flagGzip, 0x1f, 0x8b, 0x00}) // torn gzip header
	f.Add([]byte{0x7F, 0x01, 0x02})           // unknown frame flag
	if gz, err := (Codec{Compress: true}).frame(flagPlain, []byte("seed payload")); err == nil {
		f.Add(gz)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		data, release, err := unframe(blob, flagPlain)
		if err != nil {
			if data != nil {
				t.Fatalf("unframe error %v but returned %d data bytes", err, len(data))
			}
			return
		}
		snap := append([]byte(nil), data...)
		release()
		// Churn the pool: a gzip round-trip grabs and returns the same
		// arena class the first decode may have leaked a reference into.
		if gz, ferr := (Codec{Compress: true}).frame(flagPlain, bytes.Repeat([]byte{0xAB}, 64)); ferr == nil {
			if d2, r2, e2 := unframe(gz, flagPlain); e2 == nil {
				_ = d2
				r2()
			}
		}
		data2, release2, err2 := unframe(blob, flagPlain)
		if err2 != nil {
			t.Fatalf("unframe flipped to error on identical input: %v", err2)
		}
		if !bytes.Equal(snap, data2) {
			t.Fatalf("unframe not deterministic: first %d bytes, second %d bytes", len(snap), len(data2))
		}
		release2()
	})
}

func FuzzDecodeDelta(f *testing.F) {
	c := Codec{}
	if blob, err := c.EncodeDelta(randDelta(11, 20)); err == nil {
		f.Add(blob)
		f.Add(blob[:len(blob)/2]) // truncation
	}
	if blob, err := (Codec{Compress: true}).EncodeDelta(randDelta(12, 20)); err == nil {
		f.Add(blob)
	}
	// flagPlain + uvarint(2^40): the count-guard seed.
	f.Add([]byte{flagPlain, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, blob []byte) {
		d1, err1 := c.DecodeDelta(blob)
		if err1 != nil {
			if d1 != nil {
				t.Fatalf("DecodeDelta error %v but returned a delta", err1)
			}
			return
		}
		// Decode again: equal results prove nothing kept aliases a
		// pooled arena released by the first decode.
		d2, err2 := c.DecodeDelta(blob)
		if err2 != nil {
			t.Fatalf("DecodeDelta flipped to error on identical input: %v", err2)
		}
		if !reflect.DeepEqual(d1, d2) {
			t.Fatal("DecodeDelta not deterministic on identical input")
		}
		// A decoded delta must survive an encode/decode round trip.
		re, err := c.EncodeDelta(d1)
		if err != nil {
			t.Fatalf("re-encode of decoded delta failed: %v", err)
		}
		d3, err := c.DecodeDelta(re)
		if err != nil {
			t.Fatalf("decode of re-encoded delta failed: %v", err)
		}
		if !reflect.DeepEqual(d1, d3) {
			t.Fatal("delta changed across encode/decode round trip")
		}
		checkBodiesReencode(t, blob)
	})
}

// checkBodiesReencode requires every state that decodes from the row in
// blob to encode back to exactly its body bytes.
func checkBodiesReencode(t *testing.T, blob []byte) {
	t.Helper()
	row, err := Codec{}.ParseDelta(blob)
	if err != nil {
		return
	}
	for i := range row.Len() {
		ns, err := row.State(i)
		if err != nil {
			continue
		}
		var b buffer
		encodeStateBody(&b, ns)
		if !bytes.Equal(b.buf.Bytes(), row.Body(i)) {
			t.Fatalf("state of node %d decodes from body %x, encodes to %x", ns.ID, row.Body(i), b.buf.Bytes())
		}
	}
}
