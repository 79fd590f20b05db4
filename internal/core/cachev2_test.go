package core

import (
	"testing"
	"time"

	"hgs/internal/fetch"
	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/partition"
	"hgs/internal/temporal"
)

// TestNegativeEntriesInvalidatedOnAppend pins the negative-cache
// lifecycle: probing a node in a horizontal partition with no stored
// rows learns absence (the warm re-probe issues zero KV reads), and
// Append — which rebuilds the trailing timespan under the same delta
// keys — must drop those markers, or the newly written rows would stay
// invisible behind stale absence answers.
func TestNegativeEntriesInvalidatedOnAppend(t *testing.T) {
	cfg := smallConfig()
	sidOfID := func(id graph.NodeID) int {
		return partition.HashPID(id^0x5bd1e995, cfg.HorizontalPartitions)
	}
	// Events touch only sid-0 nodes, so every other partition stores no
	// delta rows at all and probes of it are pure absent-row reads.
	var used []graph.NodeID
	var ghost graph.NodeID
	for id := graph.NodeID(0); len(used) < 20 || ghost == 0; id++ {
		if sidOfID(id) == 0 {
			if len(used) < 20 {
				used = append(used, id)
			}
		} else if ghost == 0 {
			ghost = id
		}
	}
	events := make([]graph.Event, 0, len(used))
	for i, u := range used {
		events = append(events, graph.Event{Time: temporal.Time(10 * (i + 1)), Kind: graph.AddNode, Node: u})
	}
	end := events[len(events)-1].Time
	tgi := buildSmall(t, cfg, events)

	// Cold probe: the node (and its partition's rows) do not exist.
	ns, err := tgi.GetNodeAt(ghost, end, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ns != nil {
		t.Fatalf("ghost node unexpectedly exists: %+v", ns)
	}
	// Warm re-probe: absence is served from negative entries, zero KV
	// reads (the probe plans only delta parts — no boundary eventlist at
	// the final checkpoint).
	tgi.Store().ResetMetrics()
	if ns, _ := tgi.GetNodeAt(ghost, end, nil); ns != nil {
		t.Fatal("ghost node appeared on re-probe")
	}
	if reads := tgi.Store().Metrics().Reads; reads != 0 {
		t.Fatalf("warm probe of known-absent rows issued %d KV reads, want 0", reads)
	}
	if st := tgi.CacheStats(); st.NegativeHits == 0 {
		t.Fatalf("no negative hits recorded: %+v", st)
	}

	// Append creates the node; the trailing-span rebuild reuses the same
	// (tsid, sid, did, pid) keys the markers were recorded under.
	if err := tgi.Append([]graph.Event{{Time: end + 10, Kind: graph.AddNode, Node: ghost}}); err != nil {
		t.Fatal(err)
	}
	ns, err = tgi.GetNodeAt(ghost, end+20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ns == nil {
		t.Fatal("stale negative entry survived Append: the appended node is invisible")
	}
}

// TestTraceAccountingMatchesMetrics pins the per-call attribution: a
// traced retrieval whose metadata is already cached must report exactly
// the KV reads, round-trips, bytes and simulated wait the cluster
// counters accumulated for it.
func TestTraceAccountingMatchesMetrics(t *testing.T) {
	events := genHistory(21, 400, 40)
	store := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 1,
		Latency: kvstore.LatencyModel{BaseOp: 2 * time.Microsecond, PerKB: 5 * time.Microsecond}})
	tgi, err := Build(store, smallConfig(), events)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := events[0].Time, events[len(events)-1].Time+1

	// Warm the metadata and pid-map caches so the traced query reads
	// only through the fetch layer (meta loads bypass it by design).
	if _, err := tgi.GetNodeHistory(5, lo, hi, nil); err != nil {
		t.Fatal(err)
	}

	for _, id := range []graph.NodeID{11, 23} {
		store.ResetMetrics()
		tr := &fetch.Trace{}
		if _, err := tgi.GetNodeHistory(id, lo, hi, &FetchOptions{Trace: tr}); err != nil {
			t.Fatal(err)
		}
		m := store.Metrics()
		rec := tr.Record()
		if rec.Op != "node-history" {
			t.Fatalf("trace op = %q", rec.Op)
		}
		if rec.KVReads != m.Reads {
			t.Fatalf("trace KVReads %d != metrics Reads %d", rec.KVReads, m.Reads)
		}
		if rec.RoundTrips != m.RoundTrips {
			t.Fatalf("trace RoundTrips %d != metrics %d", rec.RoundTrips, m.RoundTrips)
		}
		if rec.BytesRead != m.BytesRead {
			t.Fatalf("trace BytesRead %d != metrics %d", rec.BytesRead, m.BytesRead)
		}
		if rec.SimWait != m.SimWait {
			t.Fatalf("trace SimWait %v != metrics %v", rec.SimWait, m.SimWait)
		}
		var tableReads int64
		for _, tt := range rec.Tables {
			tableReads += tt.KVReads
		}
		if tableReads != rec.KVReads {
			t.Fatalf("per-table reads %d do not sum to the total %d", tableReads, rec.KVReads)
		}
	}
}

// TestTracePlansRing pins the store-side trace collection: with
// TracePlans on, every retrieval leaves one record (fan-out queries
// leave one, not one per inner fetch), surfaced by PlanTraces and
// Stats, and the ring stays bounded.
func TestTracePlansRing(t *testing.T) {
	events := genHistory(22, 300, 30)
	cfg := smallConfig()
	cfg.TracePlans = true
	tgi := buildSmall(t, cfg, events)
	probes := []temporal.Time{500, 1500, 2500}

	if _, err := tgi.GetSnapshotsAt(probes, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tgi.GetNodeAt(3, probes[1], nil); err != nil {
		t.Fatal(err)
	}
	trs := tgi.PlanTraces()
	if len(trs) != 2 {
		t.Fatalf("PlanTraces = %d records, want 2 (one per retrieval)", len(trs))
	}
	if trs[0].Op != "snapshots" || trs[1].Op != "node-at" {
		t.Fatalf("trace ops = %q, %q", trs[0].Op, trs[1].Op)
	}
	if trs[0].Execs != len(probes) {
		t.Fatalf("fan-out trace aggregated %d execs, want %d", trs[0].Execs, len(probes))
	}
	st, err := tgi.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Traces) != 2 {
		t.Fatalf("Stats.Traces = %d records, want 2", len(st.Traces))
	}

	for i := 0; i < traceKeep+10; i++ {
		if _, err := tgi.GetNodeAt(3, probes[1], nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(tgi.PlanTraces()); n != traceKeep {
		t.Fatalf("trace ring holds %d records, want the %d bound", n, traceKeep)
	}

	// A caller-supplied trace is the caller's: filled, not ring-recorded
	// twice.
	before := len(tgi.PlanTraces())
	tr := &fetch.Trace{}
	if _, err := tgi.GetSnapshot(probes[0], &FetchOptions{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if rec := tr.Record(); rec.Op != "snapshot" || rec.Execs != 1 {
		t.Fatalf("caller trace = %+v", rec)
	}
	if after := len(tgi.PlanTraces()); after != before {
		t.Fatalf("caller-supplied trace was also ring-recorded (%d -> %d)", before, after)
	}
}
