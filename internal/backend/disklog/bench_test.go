package disklog_test

import (
	"bytes"
	"fmt"
	"testing"

	"hgs/internal/backend"
	"hgs/internal/backend/disklog"
)

// The engine microbenchmarks run a few thousand 256-byte rows over 16
// partitions. They use only backend.Backend and Open, so the same file
// measures any version of the engine. Reads come back from the OS page
// cache.
const benchRows = 4096

var benchVal = bytes.Repeat([]byte{'v'}, 256)

func benchKey(i int) (pkey, ckey string) {
	return fmt.Sprintf("p%02d", i%16), fmt.Sprintf("c%05d", i)
}

// openFilled opens an engine and writes the benchmark rows into it.
func openFilled(b *testing.B) backend.Backend {
	b.Helper()
	s, err := disklog.Open(b.TempDir(), disklog.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	for i := 0; i < benchRows; i++ {
		pk, ck := benchKey(i)
		s.Put("deltas", pk, ck, benchVal)
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkPut(b *testing.B) {
	be := openFilled(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk, ck := benchKey(i % benchRows)
		be.Put("deltas", pk, ck, benchVal)
	}
}

func BenchmarkGet(b *testing.B) {
	be := openFilled(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk, ck := benchKey(i % benchRows)
		if _, ok := be.Get("deltas", pk, ck); !ok {
			b.Fatal("row missing")
		}
	}
}

func BenchmarkMultiGet(b *testing.B) {
	be := openFilled(b)
	reqs := make([]backend.KeyRead, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range reqs {
			pk, ck := benchKey((i*len(reqs) + j) % benchRows)
			reqs[j] = backend.KeyRead{Table: "deltas", PKey: pk, CKey: ck}
		}
		be.MultiGet(reqs)
	}
}

func BenchmarkScanPrefix(b *testing.B) {
	be := openFilled(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := be.ScanPrefix("deltas", fmt.Sprintf("p%02d", i%16), ""); len(rows) != benchRows/16 {
			b.Fatalf("scan returned %d rows", len(rows))
		}
	}
}
