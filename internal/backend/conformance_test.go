package backend_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hgs/internal/backend"
	"hgs/internal/backend/disklog"
	"hgs/internal/backend/memtable"
	"hgs/internal/backend/tiered"
)

// TestEngineConformance drives every engine through the same random
// operation stream and requires identical observable behavior: the
// memtable is the executable spec; disklog and tiered must match it bit
// for bit. The tiered engine runs with a tiny memory budget, so rows
// are evicted from memory mid-stream — whether a row is served from
// memory or disk must be invisible to every read, and small cold
// segments make its triggered compaction run under the stream. Batched
// reads (MultiGet) are compared against the same spec.
func TestEngineConformance(t *testing.T) {
	mem := memtable.New()
	disk, err := disklog.Open(t.TempDir(), disklog.Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	tier, err := tiered.Open(t.TempDir(), tiered.Options{
		HotBytes: 2 << 10, // constant eviction during the stream
		Cold:     disklog.Options{SegmentBytes: 4096, CompactMinDead: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	engines := map[string]backend.Backend{"disklog": disk, "tiered": tier}

	rng := rand.New(rand.NewSource(7))
	tables := []string{"deltas", "events", "versions"}
	for op := 0; op < 4000; op++ {
		table := tables[rng.Intn(len(tables))]
		pkey := fmt.Sprintf("p%02d", rng.Intn(8))
		ckey := fmt.Sprintf("c%03d", rng.Intn(40))
		switch rng.Intn(11) {
		case 0, 1, 2, 3, 4: // put
			v := make([]byte, rng.Intn(64))
			rng.Read(v)
			mem.Put(table, pkey, ckey, append([]byte(nil), v...))
			for _, e := range engines {
				e.Put(table, pkey, ckey, append([]byte(nil), v...))
			}
		case 5: // delete
			want := mem.Delete(table, pkey, ckey)
			for name, e := range engines {
				if got := e.Delete(table, pkey, ckey); got != want {
					t.Fatalf("op %d: %s Delete(%s,%s,%s) = %v, want %v", op, name, table, pkey, ckey, got, want)
				}
			}
		case 6: // drop (rare)
			if rng.Intn(10) == 0 {
				mem.DropPartition(table, pkey)
				for _, e := range engines {
					e.DropPartition(table, pkey)
				}
			}
		case 7: // get
			want, wantOK := mem.Get(table, pkey, ckey)
			for name, e := range engines {
				got, ok := e.Get(table, pkey, ckey)
				if ok != wantOK || !bytes.Equal(got, want) {
					t.Fatalf("op %d: %s Get(%s,%s,%s) diverged", op, name, table, pkey, ckey)
				}
			}
		case 8: // scan
			prefix := fmt.Sprintf("c%d", rng.Intn(10))
			want := mem.ScanPrefix(table, pkey, prefix)
			for name, e := range engines {
				got := e.ScanPrefix(table, pkey, prefix)
				if len(got) != len(want) {
					t.Fatalf("op %d: %s scan length %d vs %d", op, name, len(got), len(want))
				}
				for i := range want {
					if want[i].CKey != got[i].CKey || !bytes.Equal(want[i].Value, got[i].Value) {
						t.Fatalf("op %d: %s scan row %d diverged", op, name, i)
					}
				}
			}
		case 9: // invariants
			want := mem.StoredBytes()
			for name, e := range engines {
				if got := e.StoredBytes(); got != want {
					t.Fatalf("op %d: %s stored bytes %d, want %d", op, name, got, want)
				}
			}
		case 10: // batched point reads, against the spec engine's Get
			reqs := make([]backend.KeyRead, 8)
			for i := range reqs {
				reqs[i] = backend.KeyRead{
					Table: tables[rng.Intn(len(tables))],
					PKey:  fmt.Sprintf("p%02d", rng.Intn(8)),
					CKey:  fmt.Sprintf("c%03d", rng.Intn(40)),
				}
			}
			want := make([][]byte, len(reqs))
			for i, r := range reqs {
				if v, ok := mem.Get(r.Table, r.PKey, r.CKey); ok {
					want[i] = append([]byte{}, v...) // present-but-empty stays non-nil
				}
			}
			check := func(name string, e backend.Backend) {
				got := e.MultiGet(reqs)
				for i := range reqs {
					if (got[i] == nil) != (want[i] == nil) || !bytes.Equal(got[i], want[i]) {
						t.Fatalf("op %d: %s MultiGet[%d] (%v) diverged", op, name, i, reqs[i])
					}
				}
			}
			check("memtable", mem)
			for name, e := range engines {
				check(name, e)
			}
		}
	}
	for _, table := range tables {
		want := mem.PartitionKeys(table)
		for name, e := range engines {
			got := e.PartitionKeys(table)
			if len(got) != len(want) {
				t.Fatalf("%s partition keys of %s: %v vs %v", name, table, got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s partition keys of %s: %v vs %v", name, table, got, want)
				}
			}
		}
	}
	for name, e := range engines {
		if err := e.Flush(); err != nil {
			t.Fatalf("%s flush: %v", name, err)
		}
	}
}

// TestTieredReopenWarmUpConformance drives the restart path of the
// tiered engine against the memtable spec: a store whose rows all live
// only on disk is killed (no final fsync) and reopened with a memory
// budget. The replay in Open refills memory, so as soon as Open returns
// the store must answer the recent-timespan probe bit-for-bit AND
// without a single cold read, and its scans and stored bytes must equal
// the spec's.
func TestTieredReopenWarmUpConformance(t *testing.T) {
	mem := memtable.New()
	dir := t.TempDir()
	seed, err := tiered.Open(dir, tiered.Options{HotBytes: 1}) // nothing is copied to memory
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const rows = 500
	type key struct{ pkey, ckey string }
	keys := make([]key, 0, rows)
	for i := 0; i < rows; i++ {
		k := key{fmt.Sprintf("p%02d", rng.Intn(8)), fmt.Sprintf("c%04d", i)}
		v := make([]byte, 16+rng.Intn(48))
		rng.Read(v)
		mem.Put("deltas", k.pkey, k.ckey, append([]byte(nil), v...))
		seed.Put("deltas", k.pkey, k.ckey, append([]byte(nil), v...))
		keys = append(keys, k)
	}
	if seed.TierCounters().HotBytes > 0 {
		t.Fatal("seed store holds rows in memory")
	}
	seed.Kill()

	warm, err := tiered.Open(dir, tiered.Options{HotBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()

	// The recent-timespan probe: newest half of the keys, point reads,
	// batched reads and scans — identical to the spec, zero cold reads.
	coldBase := warm.TierCounters().ColdReads
	recent := keys[rows/2:]
	reqs := make([]backend.KeyRead, 0, len(recent))
	for _, k := range recent {
		want, wantOK := mem.Get("deltas", k.pkey, k.ckey)
		got, ok := warm.Get("deltas", k.pkey, k.ckey)
		if ok != wantOK || !bytes.Equal(got, want) {
			t.Fatalf("warmed Get(%s,%s) diverged from spec", k.pkey, k.ckey)
		}
		reqs = append(reqs, backend.KeyRead{Table: "deltas", PKey: k.pkey, CKey: k.ckey})
	}
	gotBatch := backend.MultiGet(warm, reqs)
	wantBatch := backend.MultiGet(mem, reqs)
	for i := range reqs {
		if !bytes.Equal(gotBatch[i], wantBatch[i]) {
			t.Fatalf("warmed MultiGet[%d] diverged from spec", i)
		}
	}
	if got := warm.TierCounters().ColdReads - coldBase; got != 0 {
		t.Fatalf("warmed store paid %d cold-tier reads on the recent probe, want 0", got)
	}
	// Full scans (old rows included) still match the spec exactly.
	for p := 0; p < 8; p++ {
		pkey := fmt.Sprintf("p%02d", p)
		want := mem.ScanPrefix("deltas", pkey, "")
		got := warm.ScanPrefix("deltas", pkey, "")
		if len(got) != len(want) {
			t.Fatalf("scan of %s: %d rows vs spec %d", pkey, len(got), len(want))
		}
		for i := range want {
			if want[i].CKey != got[i].CKey || !bytes.Equal(want[i].Value, got[i].Value) {
				t.Fatalf("scan of %s row %d diverged", pkey, i)
			}
		}
	}
	if got, want := warm.StoredBytes(), mem.StoredBytes(); got != want {
		t.Fatalf("stored bytes after the reopen: %d, want %d", got, want)
	}
}
