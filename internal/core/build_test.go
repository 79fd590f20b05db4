package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/partition"
	"hgs/internal/temporal"
)

// The golden index: a fixed seeded stream built into several timespans
// and eventlists over four horizontal partitions, then three Append
// batches into the partial trailing span. Every stored row is pinned by
// one digest per configuration, so a change to the build path that
// moves any key or payload byte fails here.
const (
	goldenLoad    = 700 // 3 full timespans of 200 events + a 100-event partial one
	goldenBatch   = 30
	goldenBatches = 3
)

func goldenStream() []graph.Event {
	return genHistory(11, goldenLoad+goldenBatch*goldenBatches, 60)
}

func goldenConfigs() map[string]Config {
	random := DefaultConfig()
	random.TimespanEvents = 200
	random.EventlistSize = 40
	random.HorizontalPartitions = 4
	random.PartitionSize = 8
	replicated := random
	replicated.Partitioning = partition.Locality
	replicated.Replicate1Hop = true
	return map[string]Config{"random": random, "replicated": replicated}
}

// goldenDigests are the SHA-256 digests of the golden index per config.
var goldenDigests = map[string]string{
	"random":     "a5e98d1ff607316c57ff4b66ca5e8fc3e1f95583c935fd8e13472e8b1529137a",
	"replicated": "2711cea53a42873a1962d48829057afe297d781a6a7e627668dbd11cc5a7dca0",
}

// buildGolden loads the golden stream's prefix and appends its batches.
func buildGolden(tb testing.TB, cfg Config) *kvstore.Cluster {
	tb.Helper()
	events := goldenStream()
	store := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 1})
	tgi, err := Build(store, cfg, events[:goldenLoad])
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	for i := 0; i < goldenBatches; i++ {
		off := goldenLoad + i*goldenBatch
		if err := tgi.Append(events[off : off+goldenBatch]); err != nil {
			tb.Fatalf("Append batch %d: %v", i, err)
		}
	}
	return store
}

// storeDigest hashes every stored row — table, partition key, clustering
// key and payload (the cluster strips its stamp envelope on read) — in
// key order.
func storeDigest(store *kvstore.Cluster) string {
	h := sha256.New()
	field := func(b []byte) {
		var n [binary.MaxVarintLen64]byte
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(b)))])
		h.Write(b)
	}
	for _, table := range []string{TableDeltas, TableEvents, TableVersions, TableTimespans,
		TableGraph, TableMicroPart, TableAux, TableAuxEvents} {
		for _, pkey := range store.PartitionKeys(table) {
			for _, row := range store.ScanPartition(table, pkey) {
				field([]byte(table))
				field([]byte(pkey))
				field([]byte(row.CKey))
				field(row.Value)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenIndexDigest(t *testing.T) {
	events := goldenStream()
	for name, cfg := range goldenConfigs() {
		t.Run(name, func(t *testing.T) {
			store := buildGolden(t, cfg)
			if got, want := storeDigest(store), goldenDigests[name]; got != want {
				t.Errorf("stored rows digest = %s, want %s", got, want)
			}
			// The pinned index must also answer correctly.
			tgi := New(store, cfg)
			end := events[len(events)-1].Time
			for _, tt := range []temporal.Time{0, end / 3, end / 2, end} {
				got, err := tgi.GetSnapshot(tt, nil)
				if err != nil {
					t.Fatal(err)
				}
				if want := oracle(events, tt); !got.Equal(want) {
					t.Fatalf("snapshot@%d differs from the oracle", tt)
				}
			}
		})
	}
}

// BenchmarkBuildAll loads the golden stream's prefix into a fresh store:
//
//	go test ./internal/core -run '^$' -bench Build -benchmem
func BenchmarkBuildAll(b *testing.B) {
	cfg := goldenConfigs()["random"]
	events := goldenStream()[:goldenLoad]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		store := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 1})
		if _, err := Build(store, cfg, events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendPartialSpan appends the golden batches into the partial
// trailing span (each Append extends that span in place, or re-places
// it when a batch changes its micro-partition counts); the initial load
// is not timed.
func BenchmarkAppendPartialSpan(b *testing.B) {
	cfg := goldenConfigs()["random"]
	events := goldenStream()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 1})
		tgi, err := Build(store, cfg, events[:goldenLoad])
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j := 0; j < goldenBatches; j++ {
			off := goldenLoad + j*goldenBatch
			if err := tgi.Append(events[off : off+goldenBatch]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestPIDsSpreadWithinSid: within every horizontal partition, the
// random-placement pid hash fills every micro-partition — each (sid,
// pid) cell of 20,000 consecutive ids gets at least half its even share.
// FNV-1a alone, the sid hash, correlates the two residues and leaves
// cells empty for an even pid count.
func TestPIDsSpreadWithinSid(t *testing.T) {
	const ids = 20000
	for ns := 1; ns <= 8; ns++ {
		for npids := 1; npids <= 16; npids++ {
			cells := make([]int, ns*npids)
			for id := graph.NodeID(0); id < ids; id++ {
				cells[sidOf(id, ns)*npids+partition.MixPID(id, npids)]++
			}
			for c, n := range cells {
				if share := ids / (ns * npids); 2*n < share {
					t.Fatalf("ns=%d npids=%d: sid %d pid %d holds %d ids, even share %d", ns, npids, c/npids, c%npids, n, share)
				}
			}
		}
	}
}

// BenchmarkAppendOpenSpan appends 100 events into an open trailing span
// that already holds 1/8 or 7/8 of TimespanEvents, rebuilt untimed
// before every append: an Append that extends the span in place costs
// the same at either fill.
//
//	go test ./internal/core -run '^$' -bench AppendOpenSpan -benchmem
func BenchmarkAppendOpenSpan(b *testing.B) {
	cfg := DefaultConfig()
	cfg.TimespanEvents = 4000
	cfg.EventlistSize = 500
	cfg.PartitionSize = 50
	const batch = 100
	events := genHistory(11, 2*cfg.TimespanEvents+batch, 2000)
	for _, eighths := range []int{1, 7} {
		b.Run(fmt.Sprintf("fill=%dof8", eighths), func(b *testing.B) {
			prefix := cfg.TimespanEvents + eighths*cfg.TimespanEvents/8
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 1})
				tgi, err := Build(store, cfg, events[:prefix])
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := tgi.Append(events[prefix : prefix+batch]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
