package tiered_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"hgs/internal/backend"
	"hgs/internal/backend/tiered"
)

// The engine microbenchmarks run a few thousand 256-byte rows over 16
// partitions. They use only backend.Backend and Open with a HotBytes
// budget, so the same file measures any version of the engine.
const benchRows = 4096

var benchVal = bytes.Repeat([]byte{'v'}, 256)

func benchKey(i int) (pkey, ckey string) {
	return fmt.Sprintf("p%02d", i%16), fmt.Sprintf("c%05d", i)
}

// openFilled opens an engine with the given memory budget and writes
// the benchmark rows into it.
func openFilled(b *testing.B, hotBytes int64) backend.Backend {
	b.Helper()
	s, err := tiered.Open(b.TempDir(), tiered.Options{HotBytes: hotBytes})
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
	be := openFilled(b, 1<<30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk, ck := benchKey(i % benchRows)
		be.Put("deltas", pk, ck, benchVal)
	}
}

func BenchmarkGetHot(b *testing.B) {
	be := openFilled(b, 1<<30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk, ck := benchKey(i % benchRows)
		if _, ok := be.Get("deltas", pk, ck); !ok {
			b.Fatal("row missing")
		}
	}
}

func BenchmarkGetCold(b *testing.B) {
	// A one-byte budget keeps no row in memory once the engine settles.
	be := openFilled(b, 1)
	deadline := time.Now().Add(10 * time.Second)
	for be.TierCounters().HotBytes > 0 {
		if time.Now().After(deadline) {
			b.Fatal("rows still in memory")
		}
		time.Sleep(time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk, ck := benchKey(i % benchRows)
		if _, ok := be.Get("deltas", pk, ck); !ok {
			b.Fatal("row missing")
		}
	}
}

func BenchmarkMultiGet(b *testing.B) {
	be := openFilled(b, 1<<30)
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
	be := openFilled(b, 1<<30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := be.ScanPrefix("deltas", fmt.Sprintf("p%02d", i%16), ""); len(rows) != benchRows/16 {
			b.Fatalf("scan returned %d rows", len(rows))
		}
	}
}
