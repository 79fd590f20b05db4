package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"hgs/internal/backend/disklog"
	"hgs/internal/backend/tiered"
	"hgs/internal/codec"
	"hgs/internal/fetch"
	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/temporal"
)

// snapshotBytes serializes a snapshot canonically: every node state
// encoded with the deterministic codec (sorted attributes and edges) in
// node-id order. Two snapshots are byte-identical iff these agree.
func snapshotBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	cdc := codec.Codec{}
	var buf bytes.Buffer
	for _, id := range g.NodeIDs() {
		blob, err := cdc.EncodeNodeState(g.Node(id))
		if err != nil {
			t.Fatalf("EncodeNodeState: %v", err)
		}
		buf.Write(blob)
	}
	return buf.Bytes()
}

// TestParallelWorkersDeterministic pins the materialization contract:
// the worker pool (one worker per GOMAXPROCS) changes only local CPU
// parallelism, so snapshots taken at GOMAXPROCS 1 (sequential) and 8
// over the same stored index must be byte-identical — on every storage
// engine, and both matching the sequential oracle replay of the raw
// history.
func TestParallelWorkersDeterministic(t *testing.T) {
	events := genHistory(7, 700, 60)
	cfg := smallConfig()
	cfg.HorizontalPartitions = 5 // enough sid shards to occupy 8 workers unevenly

	engines := map[string]func(t *testing.T) *kvstore.Cluster{
		"memory": func(t *testing.T) *kvstore.Cluster {
			return kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 1})
		},
		"disk": func(t *testing.T) *kvstore.Cluster {
			cl, err := kvstore.Open(kvstore.Config{
				Machines: 3,
				Backend:  disklog.Factory(t.TempDir(), disklog.Options{}),
			})
			if err != nil {
				t.Fatal(err)
			}
			return cl
		},
		"tiered": func(t *testing.T) *kvstore.Cluster {
			cl, err := kvstore.Open(kvstore.Config{
				Machines: 3,
				Backend:  tiered.Factory(t.TempDir(), tiered.Options{HotBytes: 32 << 10}),
			})
			if err != nil {
				t.Fatal(err)
			}
			return cl
		},
	}
	for name, open := range engines {
		t.Run(name, func(t *testing.T) {
			cluster := open(t)
			seq, err := Build(cluster, cfg, events)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			par, attached, err := Attach(cluster, cfg)
			if err != nil {
				t.Fatalf("Attach: %v", err)
			}
			if !attached {
				t.Fatal("Attach found no persisted index")
			}
			end := events[len(events)-1].Time
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, tt := range []temporal.Time{1, end / 4, end / 2, 3 * end / 4, end, end + 5} {
				runtime.GOMAXPROCS(1)
				g1, err := seq.GetSnapshot(tt, nil)
				if err != nil {
					t.Fatalf("sequential GetSnapshot(%d): %v", tt, err)
				}
				runtime.GOMAXPROCS(8)
				g8, err := par.GetSnapshot(tt, nil)
				if err != nil {
					t.Fatalf("parallel GetSnapshot(%d): %v", tt, err)
				}
				b1, b8 := snapshotBytes(t, g1), snapshotBytes(t, g8)
				if !bytes.Equal(b1, b8) {
					t.Fatalf("snapshot@%d differs between workers=1 (%d bytes) and workers=8 (%d bytes)", tt, len(b1), len(b8))
				}
				if !g8.Equal(oracle(events, tt)) {
					t.Fatalf("parallel snapshot@%d diverged from the oracle", tt)
				}
			}
		})
	}
}

// TestParallelTraceAccountingMatchesMetrics pins per-call attribution
// under parallel materialization: at GOMAXPROCS 8 the fetch work races
// across the worker pool, but a traced retrieval must still
// report exactly the KV reads, round-trips, bytes and simulated wait
// the cluster counters accumulated for it. Run under `go test -race`
// by make ci, this also exercises the trace counters for data races.
func TestParallelTraceAccountingMatchesMetrics(t *testing.T) {
	events := genHistory(21, 400, 40)
	cfg := smallConfig()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	store := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 1,
		Latency: kvstore.LatencyModel{BaseOp: 2 * time.Microsecond, PerKB: 5 * time.Microsecond}})
	tgi, err := Build(store, cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := events[0].Time, events[len(events)-1].Time+1

	// Warm the metadata and pid-map caches so traced queries read only
	// through the fetch layer (meta loads bypass it by design).
	if _, err := tgi.GetSnapshot(hi, nil); err != nil {
		t.Fatal(err)
	}

	var totalReads int64
	check := func(op string, tr *fetch.Trace, before kvstore.Metrics) {
		t.Helper()
		after := store.Metrics()
		m := kvstore.Metrics{
			Reads:      after.Reads - before.Reads,
			RoundTrips: after.RoundTrips - before.RoundTrips,
			BytesRead:  after.BytesRead - before.BytesRead,
			SimWait:    after.SimWait - before.SimWait,
		}
		rec := tr.Record()
		totalReads += rec.KVReads
		if rec.Op != op {
			t.Fatalf("trace op = %q, want %q", rec.Op, op)
		}
		if rec.KVReads != m.Reads {
			t.Fatalf("%s: trace KVReads %d != metrics Reads %d", op, rec.KVReads, m.Reads)
		}
		if rec.RoundTrips != m.RoundTrips {
			t.Fatalf("%s: trace RoundTrips %d != metrics %d", op, rec.RoundTrips, m.RoundTrips)
		}
		if rec.BytesRead != m.BytesRead {
			t.Fatalf("%s: trace BytesRead %d != metrics %d", op, rec.BytesRead, m.BytesRead)
		}
		if rec.SimWait != m.SimWait {
			t.Fatalf("%s: trace SimWait %v != metrics %v", op, rec.SimWait, m.SimWait)
		}
		// A round lasts as long as its busiest node: some of the charged
		// wait, never more than all of it.
		if rec.KVReads > 0 && (rec.ModelTime <= 0 || rec.ModelTime > rec.SimWait) {
			t.Fatalf("%s: trace ModelTime %v outside (0, SimWait %v]", op, rec.ModelTime, rec.SimWait)
		}
	}
	for _, tt := range []temporal.Time{lo + (hi-lo)/3, hi - 1} {
		before := store.Metrics()
		tr := &fetch.Trace{}
		if _, err := tgi.GetSnapshot(tt, &FetchOptions{Trace: tr}); err != nil {
			t.Fatal(err)
		}
		check("snapshot", tr, before)
	}
	for _, id := range []graph.NodeID{11, 23} {
		before := store.Metrics()
		tr := &fetch.Trace{}
		if _, err := tgi.GetNodeHistory(id, lo, hi, &FetchOptions{Trace: tr}); err != nil {
			t.Fatal(err)
		}
		check("node-history", tr, before)
	}
	if totalReads == 0 {
		t.Fatal("no traced call read the store; the attribution check never exercised the parallel fetch path")
	}
}
