package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyScale keeps the smoke tests fast; the real benches run at
// DefaultScale through cmd/hgs-bench and the root testing.B harness.
func tinyScale() Scale {
	return Scale{
		WikiNodes:        1500,
		WikiEdgesPerNode: 3,
		Augment2:         2500,
		Augment3:         5000,
		// Friendster must exceed ps × sids so micro-partitioning (and
		// therefore the Fig 15a layout comparison) is non-degenerate.
		FriendsterCommunities: 24,
		FriendsterSize:        200,
		DBLPAuthors:           200,
		DBLPPapers:            400,
		DBLPChurn:             600,
	}
}

func checkResult(t *testing.T, r *Result, wantSeries int) {
	t.Helper()
	if r.ID == "" || r.Title == "" {
		t.Fatalf("result missing identity: %+v", r)
	}
	if len(r.Series) < wantSeries {
		t.Fatalf("%s: got %d series, want >= %d", r.ID, len(r.Series), wantSeries)
	}
	for _, s := range r.Series {
		if len(s.Points) == 0 {
			t.Fatalf("%s: series %q has no points", r.ID, s.Name)
		}
		for _, p := range s.Points {
			if p.Y < 0 {
				t.Fatalf("%s: negative measurement in %q", r.ID, s.Name)
			}
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatalf("%s: Print produced nothing", r.ID)
	}
}

// skipIfShort keeps `go test -short ./...` (the tier-1 gate) to
// seconds: each smoke test builds multi-index TGIs and runs the full
// latency model, ~30s combined at tiny scale.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("bench smoke test skipped in -short mode")
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	ResetCache()
	os.Exit(code)
}

func TestFig11Smoke(t *testing.T) {
	skipIfShort(t)
	r := Fig11(tinyScale())
	checkResult(t, r, 6)
	// Parallel fetch must not be slower than serial by a large factor on
	// the largest snapshot (shape check: c helps or at least not hurts).
	serial := r.Series[0].Points[len(r.Series[0].Points)-1].Y
	parallel := r.Series[2].Points[len(r.Series[2].Points)-1].Y // c=4
	if parallel > serial*1.5 {
		t.Errorf("c=4 slower than c=1: %.4fs vs %.4fs", parallel, serial)
	}
}

func TestFig12Smoke(t *testing.T) {
	skipIfShort(t)
	checkResult(t, Fig12(tinyScale()), 12)
}

func TestFig13Smoke(t *testing.T) {
	skipIfShort(t)
	checkResult(t, Fig13a(tinyScale()), 2)
	checkResult(t, Fig13b(tinyScale()), 3)
	checkResult(t, Fig13c(tinyScale()), 1)
}

func TestFig14Smoke(t *testing.T) {
	skipIfShort(t)
	checkResult(t, Fig14a(tinyScale()), 3)
	checkResult(t, Fig14b(tinyScale()), 3)
	checkResult(t, Fig14c(tinyScale()), 1)
}

func TestFig15Smoke(t *testing.T) {
	skipIfShort(t)
	a := Fig15a(tinyScale())
	checkResult(t, a, 3)
	// Shape: locality ("maxflow") partitioning must beat random for
	// 1-hop retrieval; replication must stay in locality's band (its
	// strict win over plain locality only emerges at larger scales —
	// see EXPERIMENTS.md Figure 15a).
	random := a.Series[0].Points[0].Y
	maxflow := a.Series[1].Points[0].Y
	replicated := a.Series[2].Points[0].Y
	if maxflow > random {
		t.Errorf("locality (%.5fs) not better than random (%.5fs)", maxflow, random)
	}
	if replicated > 1.5*maxflow {
		t.Errorf("replication (%.5fs) far off locality (%.5fs)", replicated, maxflow)
	}
	checkResult(t, Fig15b(tinyScale()), 3)
	checkResult(t, Fig15c(tinyScale()), 3)
}

func TestFig16Smoke(t *testing.T) {
	skipIfShort(t)
	checkResult(t, Fig16(tinyScale()), 2)
}

func TestFig17Smoke(t *testing.T) {
	skipIfShort(t)
	r := Fig17(tinyScale())
	checkResult(t, r, 2)
	// Shape: incremental computation must beat per-version recomputation
	// at the largest version count.
	fresh := r.Series[0].Points[len(r.Series[0].Points)-1].Y
	incr := r.Series[1].Points[len(r.Series[1].Points)-1].Y
	if incr > fresh {
		t.Errorf("incremental (%.5fs) not faster than fresh (%.5fs)", incr, fresh)
	}
}

func TestTable1Smoke(t *testing.T) {
	skipIfShort(t)
	r := Table1(tinyScale())
	if len(r.TableRows) < 12 { // 6 analytical + header + 6 measured
		t.Fatalf("table rows = %d", len(r.TableRows))
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("DeltaGraph")) {
		t.Fatal("table missing DeltaGraph row")
	}
}

func TestAblationsSmoke(t *testing.T) {
	skipIfShort(t)
	checkResult(t, AblationArity(tinyScale()), 1)
	r := AblationVersionChains(tinyScale())
	checkResult(t, r, 2)
}

func TestCacheBenchSmoke(t *testing.T) {
	skipIfShort(t)
	r := CacheBench(tinyScale())
	if len(r.TableRows) != 3 {
		t.Fatalf("cache table rows = %d, want 3 passes", len(r.TableRows))
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("warm (v2)")) {
		t.Fatal("cache result missing warm v2 pass")
	}
	if !bytes.Contains(buf.Bytes(), []byte("negative-hit ratio")) {
		t.Fatal("cache result missing the negative-hit ratio note")
	}
}

// TestCacheV2NegativeCaching is the acceptance bar of cache v2: on the
// sparse-history workload the warm pass must answer a nonzero share of
// its probes from negative entries (each one an absent-row KV read not
// issued), and so issue strictly fewer KV reads than the cold pass.
func TestCacheV2NegativeCaching(t *testing.T) {
	skipIfShort(t)
	cold, warm, warmDelta := CacheV2Passes(tinyScale())
	if warmDelta.NegativeHits == 0 {
		t.Fatal("warm v2 pass recorded no negative hits on the sparse-history workload")
	}
	if warm.Reads >= cold.Reads {
		t.Fatalf("warm v2 pass issued %d KV reads, not fewer than the cold pass's %d", warm.Reads, cold.Reads)
	}
}

// TestCacheBenchSpeedup is the CLI-visible form of the fetch-layer
// acceptance bar: the warm pass of the cache workload must issue at
// least 2× fewer KV operations than the cold pass. Since boundary
// eventlists became cacheable, zero warm reads is the expected best
// case (the whole probe set is cache-resident), not a broken pass.
func TestCacheBenchSpeedup(t *testing.T) {
	skipIfShort(t)
	cold, warm := CachePasses(tinyScale())
	if cold.Reads == 0 || cold.Reads < 2*warm.Reads {
		t.Fatalf("cold pass %d KV reads, warm pass %d: want >= 2x reduction", cold.Reads, warm.Reads)
	}
	if warm.RoundTrips >= cold.RoundTrips {
		t.Fatalf("warm round-trips %d not below cold %d", warm.RoundTrips, cold.RoundTrips)
	}
}

// TestReopenSmoke is the acceptance bar of the warm-up subsystem: after
// a restart, the recent-timespan probe workload must be served almost
// entirely from memory when warm-up is on (hit ratio >= 0.9) and must
// simulate strictly less wait than the cold reopen.
func TestReopenSmoke(t *testing.T) {
	skipIfShort(t)
	coldM, warmM := ReopenPasses(tinyScale())
	if coldM.TierColdReads == 0 {
		t.Fatal("cold reopen issued no disk-tier reads; the build did not go cold")
	}
	if warmM.WarmedRows == 0 {
		t.Fatal("warm reopen recorded no warmed rows")
	}
	if ratio := hitRatio(warmM); ratio < 0.9 {
		t.Fatalf("warm reopen hot-hit ratio = %.3f, want >= 0.9 (hot=%d cold=%d)",
			ratio, warmM.TierHotReads, warmM.TierColdReads)
	}
	if warmM.SimWait >= coldM.SimWait {
		t.Fatalf("warm reopen sim wait %v not below cold reopen %v", warmM.SimWait, coldM.SimWait)
	}
	if hitRatio(warmM) <= hitRatio(coldM) {
		t.Fatalf("warm-up did not improve the hit ratio: %.3f vs %.3f", hitRatio(warmM), hitRatio(coldM))
	}
	r := ReopenBench(tinyScale())
	if len(r.TableRows) != 2 {
		t.Fatalf("reopen table rows = %d, want 2 passes", len(r.TableRows))
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("warm-up")) {
		t.Fatal("reopen result missing warm-up note")
	}
}

// TestParallelSmoke is the acceptance bar of parallel materialization:
// every worker count must produce byte-identical snapshots, the warm
// sweep must be served from cached eventlists (hits > 0), and parallel
// passes must not be meaningfully slower than the sequential one. The
// speedup direction is only asserted where it is physically possible
// (more than one core); the wall-clock tolerance stays generous because
// shared runners are noisy.
func TestParallelSmoke(t *testing.T) {
	skipIfShort(t)
	passes := ParallelPasses(tinyScale())
	if len(passes) != len(parallelWorkerCounts) {
		t.Fatalf("got %d passes, want %d", len(passes), len(parallelWorkerCounts))
	}
	base := passes[0]
	if base.Workers != 1 {
		t.Fatalf("first pass workers = %d, want 1", base.Workers)
	}
	for _, p := range passes {
		if p.Digest != base.Digest {
			t.Fatalf("workers=%d digest %016x differs from workers=1 digest %016x",
				p.Workers, p.Digest, base.Digest)
		}
		if p.EventlistHits == 0 {
			t.Fatalf("workers=%d warm pass recorded no eventlist cache hits", p.Workers)
		}
		if p.AllocsPerOp <= 0 {
			t.Fatalf("workers=%d pass recorded no allocations: %+v", p.Workers, p)
		}
		if p.Workers > 1 && p.Seconds > 2*base.Seconds {
			t.Errorf("workers=%d (%.4fs) much slower than workers=1 (%.4fs)",
				p.Workers, p.Seconds, base.Seconds)
		}
	}
	r := ParallelBench(tinyScale())
	checkResult(t, r, 2)
	if len(r.Passes) != len(parallelWorkerCounts) {
		t.Fatalf("parallel result carries %d passes, want %d", len(r.Passes), len(parallelWorkerCounts))
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("byte-identical across worker counts: true")) {
		t.Fatal("parallel result missing the byte-identity note")
	}
}

// TestServeSmoke runs the closed-loop HTTP driver at tiny scale: the
// spawned server must complete requests from all concurrent clients,
// stream back rows, and report coherent rates.
func TestServeSmoke(t *testing.T) {
	skipIfShort(t)
	r := ServeBench(tinyScale())
	if r.ID != "serve" || len(r.Passes) != 1 {
		t.Fatalf("serve result shape: %+v", r)
	}
	p := r.Passes[0]
	if p.Ops == 0 {
		t.Fatalf("no successful requests")
	}
	if p.QPS <= 0 {
		t.Fatalf("QPS not reported: %+v", p)
	}
	if p.P50Seconds <= 0 || p.P99Seconds < p.P50Seconds {
		t.Fatalf("quantiles incoherent: p50=%v p99=%v", p.P50Seconds, p.P99Seconds)
	}
	if p.ShedRate < 0 || p.ShedRate > 1 || p.DeadlineMissRate < 0 || p.DeadlineMissRate > 1 {
		t.Fatalf("rates out of range: %+v", p)
	}
	if len(r.TableRows) != 1 {
		t.Fatalf("serve table rows: %d", len(r.TableRows))
	}
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "streamed") && !strings.Contains(n, "streamed 0 ") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no streamed rows reported: %v", r.Notes)
	}
}

// TestRebalanceSmoke is the acceptance bar of the node-lifecycle
// subsystem, run by `make test-full`: a node joins under live traffic
// and every phase's query answers digest equal to the healthy baseline
// (no query observes a missing partition mid-handoff), the migration
// stays within ~2x the consistent-hashing movement bound, and a
// replica-down phase answers via degraded reads.
func TestRebalanceSmoke(t *testing.T) {
	skipIfShort(t)
	passes := RebalancePasses(tinyScale())
	if len(passes) != 3 {
		t.Fatalf("got %d passes, want 3", len(passes))
	}
	base, add, degraded := passes[0], passes[1], passes[2]
	if base.Label != "baseline" || add.Label != "node-add" || degraded.Label != "degraded" {
		t.Fatalf("pass labels: %q %q %q", base.Label, add.Label, degraded.Label)
	}
	for _, p := range passes {
		if p.Digest != base.Digest {
			t.Fatalf("%s phase digest %016x differs from baseline %016x (query saw wrong or missing rows)",
				p.Label, p.Digest, base.Digest)
		}
		if p.Ops == 0 || p.P99 <= 0 || p.P99 < p.P50 {
			t.Fatalf("%s phase latency incoherent: %+v", p.Label, p)
		}
	}
	if add.RowsMoved == 0 || add.PartitionsMoved == 0 {
		t.Fatalf("node-add moved nothing: %+v", add)
	}
	if add.RelocatedShare > 2*add.TheoryShare {
		t.Fatalf("node-add relocated %.1f%% of keys, above 2x the ~%.1f%% consistent-hashing bound",
			100*add.RelocatedShare, 100*add.TheoryShare)
	}
	if degraded.DegradedReads == 0 {
		t.Fatalf("degraded phase recorded no degraded reads: %+v", degraded)
	}
	if base.DegradedReads != 0 || base.Failovers != 0 || base.RowsMoved != 0 {
		t.Fatalf("baseline phase not clean: %+v", base)
	}

	r := RebalanceBench(tinyScale())
	checkResult(t, r, 2)
	if len(r.Passes) != 3 {
		t.Fatalf("rebalance result carries %d passes, want 3", len(r.Passes))
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("byte-identical across baseline/node-add/degraded phases: true")) {
		t.Fatal("rebalance result missing the byte-identity note")
	}
}

// TestQuorumSmoke is the acceptance bar of the consistency subsystem,
// run by `make test-full`: quorum reads answer bit-identically to the
// R=1 baseline (healthy, degraded, and concurrent with an anti-entropy
// sweep), a healthy cluster repairs nothing, R=2 roughly doubles
// replica visits, and W=1 shields callers from a slow replica that
// write-all has to wait for.
func TestQuorumSmoke(t *testing.T) {
	skipIfShort(t)
	passes := QuorumPasses(tinyScale())
	if len(passes) != 6 {
		t.Fatalf("got %d passes, want 6", len(passes))
	}
	labels := []string{"read-r1", "read-r2", "read-r2-degraded", "read-r2-antientropy",
		"write-w3-slow-replica", "write-w1-slow-replica"}
	for i, p := range passes {
		if p.Label != labels[i] {
			t.Fatalf("pass %d labelled %q, want %q", i, p.Label, labels[i])
		}
	}
	base := passes[0]
	for _, p := range passes[:4] {
		if p.Digest != base.Digest {
			t.Fatalf("%s phase digest %016x differs from baseline %016x (quorum read lost or corrupted rows)",
				p.Label, p.Digest, base.Digest)
		}
		if p.Ops == 0 || p.P99 <= 0 || p.P99 < p.P50 {
			t.Fatalf("%s phase latency incoherent: %+v", p.Label, p)
		}
		if p.ReadRepairs != 0 {
			t.Fatalf("%s phase repaired %d rows on a healthy workload — replicas diverged during serving",
				p.Label, p.ReadRepairs)
		}
	}
	r1, r2 := passes[0], passes[1]
	if r2.RoundTrips <= r1.RoundTrips {
		t.Fatalf("R=2 did not amplify replica visits: %d vs %d", r2.RoundTrips, r1.RoundTrips)
	}
	if passes[2].Failovers == 0 {
		t.Fatalf("degraded phase saw no failovers: %+v", passes[2])
	}
	if passes[3].AEBytes != 0 || passes[3].AERows != 0 {
		t.Fatalf("anti-entropy streamed %d rows/%d bytes on a consistent cluster", passes[3].AERows, passes[3].AEBytes)
	}
	wAll, w1 := passes[4], passes[5]
	if wAll.Writes != quorumWriteOps || w1.Writes != quorumWriteOps {
		t.Fatalf("write passes lost writes: %d and %d, want %d", wAll.Writes, w1.Writes, int64(quorumWriteOps))
	}
	// Every write reaches all 3 replicas eventually (Quiesce before the
	// metrics read), whatever the ack quorum.
	for _, p := range passes[4:] {
		if p.RoundTrips < int64(quorumWriteOps*quorumReplication) {
			t.Fatalf("%s: %d round-trips, want >= %d (3 replicas per write)",
				p.Label, p.RoundTrips, quorumWriteOps*quorumReplication)
		}
	}
	if w1.P99 >= wAll.P99 {
		t.Fatalf("W=1 p99 (%.0fµs) not below write-all p99 (%.0fµs) with a +300µs replica",
			w1.P99*1e6, wAll.P99*1e6)
	}

	r := QuorumBench(tinyScale())
	checkResult(t, r, 2)
	if len(r.Passes) != 6 {
		t.Fatalf("quorum result carries %d passes, want 6", len(r.Passes))
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("answers bit-identical: true")) {
		t.Fatal("quorum result missing the bit-identity note")
	}
}

func TestRunnersComplete(t *testing.T) {
	want := []string{
		"table1", "fig11", "fig12", "fig13a", "fig13b", "fig13c",
		"fig14a", "fig14b", "fig14c", "fig15a", "fig15b", "fig15c",
		"fig16", "fig17", "cache", "tiering", "reopen", "parallel",
		"serve", "rebalance", "quorum", "ablation-arity", "ablation-vc",
	}
	for _, id := range want {
		if _, ok := Runners[id]; !ok {
			t.Errorf("missing runner %q", id)
		}
	}
}

func TestDefaultScaleEnv(t *testing.T) {
	t.Setenv("HGS_SCALE", "0.5")
	sc := DefaultScale()
	if sc.WikiNodes != 10_000 {
		t.Fatalf("HGS_SCALE not applied: %d", sc.WikiNodes)
	}
	t.Setenv("HGS_SCALE", "bogus")
	if DefaultScale().WikiNodes != 20_000 {
		t.Fatal("bogus HGS_SCALE should fall back to defaults")
	}
}

func TestTieringSmoke(t *testing.T) {
	skipIfShort(t)
	r := TieringBench(tinyScale())
	checkResult(t, r, 2)
	// The acceptance bar of the tiered backend: with an unbounded hot
	// tier the whole probe workload is served without a single
	// disk-tier read, and hot hits dominate (the last table row is the
	// unbounded pass).
	last := r.TableRows[len(r.TableRows)-1]
	if last[0] != "unbounded" {
		t.Fatalf("last row %v is not the unbounded pass", last)
	}
	if last[2] != "0" {
		t.Fatalf("unbounded hot tier still issued %s cold reads", last[2])
	}
	if last[1] == "0" {
		t.Fatal("unbounded pass recorded no hot reads")
	}
	// The hit-ratio series must not decrease as the hot tier grows.
	pts := r.Series[0].Points
	if pts[len(pts)-1].Y < pts[0].Y {
		t.Fatalf("hot-hit ratio fell as the hot tier grew: %v", pts)
	}
	if pts[len(pts)-1].Y != 1.0 {
		t.Fatalf("unbounded hot tier hit ratio = %v, want 1.0", pts[len(pts)-1].Y)
	}
}

// TestDatasetDiskCache covers the HGS_DATASET_DIR layer the scheduled
// perf workflow relies on: the first build writes a gob file, a fresh
// process (simulated by dropping the in-memory cache) loads the same
// events from disk instead of regenerating.
func TestDatasetDiskCache(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("HGS_DATASET_DIR", dir)
	ResetCache()
	defer ResetCache()
	sc := Scale{WikiNodes: 64, WikiEdgesPerNode: 2}
	first := Dataset1(sc)
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("dataset cache dir holds %d files (err %v), want 1", len(entries), err)
	}
	ResetCache() // a new job: in-memory cache gone, disk cache warm
	second := Dataset1(sc)
	if len(first) != len(second) {
		t.Fatalf("disk-cached dataset has %d events, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("disk-cached event %d differs: %+v vs %+v", i, second[i], first[i])
		}
	}
	// A corrupt cache file regenerates instead of failing.
	ResetCache()
	if err := os.WriteFile(filepath.Join(dir, entries[0].Name()), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	third := Dataset1(sc)
	if len(third) != len(first) {
		t.Fatalf("corrupt cache file not regenerated: %d events", len(third))
	}
}

// TestReportJSONRoundTrip — the -json contract: metered passes carry
// structured measurements (KV delta, latency quantiles), and a report
// survives the write/read cycle scripts/perfdiff depends on.
func TestReportJSONRoundTrip(t *testing.T) {
	skipIfShort(t)
	sc := tinyScale()
	r := Fig11(sc)
	if len(r.Passes) == 0 {
		t.Fatal("metered figure produced no PassMetrics")
	}
	p := r.Passes[0]
	if p.Label == "" || p.KVReads <= 0 || p.RoundTrips <= 0 {
		t.Fatalf("pass not populated: %+v", p)
	}
	if p.Ops == 0 || p.P99Seconds < p.P50Seconds || p.P50Seconds <= 0 {
		t.Fatalf("pass quantiles not populated or inconsistent: %+v", p)
	}
	rep := &Report{Scale: sc, Results: []*Result{r}}
	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Scale != sc {
		t.Fatalf("scale round-trip: %+v != %+v", back.Scale, sc)
	}
	if len(back.Results) != 1 || len(back.Results[0].Passes) != len(r.Passes) {
		t.Fatal("results or passes lost in round-trip")
	}
	if back.Results[0].Passes[0] != p {
		t.Fatalf("pass round-trip mismatch:\n got %+v\nwant %+v", back.Results[0].Passes[0], p)
	}
}
