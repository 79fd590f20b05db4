package main

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// testConfig runs a workload at about 1/50 of the driver's scale.
func testConfig(t *testing.T) runConfig {
	return runConfig{seed: 7, seconds: 0.5, scale: 0.02, every: 3, outDir: t.TempDir()}
}

func names(specs []metricSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

// checkResult asserts that r carries exactly the metrics of specs, each
// finite and tagged with its unit, and that no op failed.
func checkResult(t *testing.T, r *result, specs []metricSpec) {
	t.Helper()
	if r.Failed != 0 || !r.Correct {
		t.Errorf("%d of %d ops failed: %v", r.Failed, r.Attempted, r.failures)
	}
	if r.Attempted < 1 {
		t.Errorf("attempted %d ops", r.Attempted)
	}
	var got []string
	for name := range r.Metrics {
		got = append(got, name)
	}
	sort.Strings(got)
	want := names(specs)
	if len(got) != len(want) {
		t.Fatalf("emitted %d metrics, spec names %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("metric %q emitted, spec names %q", got[i], want[i])
		}
	}
	for _, s := range specs {
		v := r.Metrics[s.Name]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s is %v", s.Name, v.Value)
		}
		if v.Unit != s.Unit || v.Unit == "" {
			t.Errorf("%s has unit %q, spec says %q", s.Name, v.Unit, s.Unit)
		}
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := testConfig(t)
			r, err := runEndToEnd(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, endToEnd)
			for _, s := range endToEnd {
				if r.Metrics[s.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", s.Name, r.Metrics[s.Name].Value)
				}
			}

			r, path, err := runTraced(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, perLayer)
			if filepath.Base(path) != "trace-"+w.name+".json" {
				t.Errorf("trace written to %s", path)
			}
			if _, err := os.Stat(path); err != nil {
				t.Error(err)
			}
			for _, k := range []string{"kvstore.degraded_reads", "kvstore.hinted_writes", "kvstore.read_repairs"} {
				if v := r.Metrics[k].Value; v != 0 {
					t.Errorf("%s = %v on a healthy cluster", k, v)
				}
			}
			if entries, _ := os.ReadDir(cfg.outDir); len(entries) != 1 {
				t.Errorf("run left %d entries in its out directory, want only the trace", len(entries))
			}
		})
	}
}

// TestSpanSelfTimesSumToWorkload: one traced client makes spans that nest
// without overlap, so self times partition the workload span exactly.
func TestSpanSelfTimesSumToWorkload(t *testing.T) {
	for _, name := range []string{"point_cold", "ingest_mixed", "serve_http", "taf_evolution"} {
		p, err := runPass(findWorkload(name), testConfig(t), true)
		p.teardown()
		if err != nil {
			t.Fatal(err)
		}
		spans := p.rec.spans
		if len(spans) < 3 {
			t.Fatalf("%s: %d spans", name, len(spans))
		}
		var total int64
		for id, self := range selfTimes(spans) {
			if self < 0 {
				t.Errorf("%s: span %d (%s) has self time %d ns", name, id, spans[id-1].Name, self)
			}
			total += self
		}
		if root := spans[0].End - spans[0].Start; total != root {
			t.Errorf("%s: self times sum to %d ns, workload span is %d ns", name, total, root)
		}
		byOp := make(map[int]bool)
		for _, s := range spans[1:] {
			byOp[s.Op] = true
			if s.Parent == 0 || s.End < s.Start {
				t.Errorf("%s: malformed span %+v", name, s)
			}
		}
		if len(byOp) < 2 {
			t.Errorf("%s: spans carry %d distinct op ids", name, len(byOp))
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 50},
		{ID: 3, Parent: 1, Start: 30, End: 70}, // overlaps span 2 by 20
	}
	if got := selfTimes(spans)[1]; got != 40 {
		t.Errorf("self time %d, want 40", got)
	}
}

// TestOracleCatchesCorruptedAnswers: correct answers pass the replay, and
// each answer with one thing changed fails it.
func TestOracleCatchesCorruptedAnswers(t *testing.T) {
	sz := sizingFor(0.02)
	ds := buildDataset(sz, 3)
	st, err := openStore(storeConfig{engine: "memory", timespanEvents: sz.timespanEvents, eventlistSize: sz.eventlistSize})
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if err := st.load(ds.events); err != nil {
		t.Fatal(err)
	}
	mid := ds.end / 2
	var hub NodeID // a node with neighbours at mid
	for _, e := range ds.events {
		if e.Kind.IsEdge() && e.Time < mid {
			hub = e.Other
			break
		}
	}
	ops := []op{
		{kind: kindSnapshot, t: mid},
		{kind: kindNode, id: hub, t: mid},
		{kind: kindHistory, id: hub, t: 1, te: ds.end},
		{kind: kindChangeTimes, id: hub, t: 1, te: ds.end},
		{kind: kindKHop1, id: hub, t: mid},
		{kind: kindKHop2, id: hub, t: mid},
	}
	var good []answer
	for _, o := range ops {
		a, err := execOp(st, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		good = append(good, a)
	}
	job, _, err := st.tafFetch(mid/2, mid)
	if err != nil {
		t.Fatal(err)
	}
	taf := answer{op: op{kind: kindTAF, t: mid / 2, te: mid}, changes: job.compute()}
	taf.times, taf.density = job.evolution()
	good = append(good, taf)
	if fails := verify(ds.events, good); len(fails) != 0 {
		t.Fatalf("oracle rejects correct answers: %v", fails)
	}

	bad := append([]answer(nil), good...)
	bad[0].graph.RemoveNode(hub)
	bad[1].node = bad[1].node.Clone()
	for k := range bad[1].node.Edges {
		delete(bad[1].node.Edges, k)
		break
	}
	bad[2].events = bad[2].events[1:]
	bad[3].times = bad[3].times[:len(bad[3].times)-1]
	bad[4].members = bad[4].members[1:]
	bad[5].members = append([]NodeID{-1}, bad[5].members...)
	bad[6].changes++
	if fails := verify(ds.events, bad); len(fails) != len(bad) {
		t.Errorf("oracle caught %d of %d corrupted answers: %v", len(fails), len(bad), fails)
	}
	if fails := verify(ds.events, []answer{{op: ops[1], absent: true}}); len(fails) != 1 {
		t.Errorf("oracle accepted a not-found for a node that exists: %v", fails)
	}
}

// TestHTTPBodiesDecodeToLibraryAnswers: the same op over HTTP, decoded,
// passes the same oracle.
func TestHTTPBodiesDecodeToLibraryAnswers(t *testing.T) {
	cfg := testConfig(t)
	p := newPass(findWorkload("serve_http"), cfg, false)
	defer p.teardown()
	if err := p.timedSetup(); err != nil {
		t.Fatal(err)
	}
	client := newHTTPClient(1)
	defer client.CloseIdleConnections()
	var got []answer
	seen := make(map[opKind]bool)
	for i := 0; i < 400 && len(seen) < len(mixServe); i++ {
		o := p.gen.skewedOp(mixServe)
		if seen[o.kind] {
			continue
		}
		seen[o.kind] = true
		r := httpGet(client, p.srv.addr, o)
		if r.err != nil || r.status != 200 {
			t.Fatalf("%s: status %d, %v", opURL(o), r.status, r.err)
		}
		a, err := decodeBody(o, r.body)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, a)
	}
	if len(seen) != len(mixServe) {
		t.Fatalf("op stream produced %d of %d kinds", len(seen), len(mixServe))
	}
	if fails := verify(p.ds.events, got); len(fails) != 0 {
		t.Errorf("decoded HTTP answers fail the oracle: %v", fails)
	}
}

func TestQuartilesMatchPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles %v %v, want 1 4", q1, q3)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 50: 3, 75: 4, 95: 5, 100: 5} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
}

// TestSpecIsBenchmarkJSON keeps BENCHMARK.json and spec.go the same, and
// inside the limits the driver refuses a file for.
func TestSpecIsBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != specJSON() {
		t.Error("BENCHMARK.json differs from `go run . -print-spec`")
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	hasSetup := false
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[s.Name] || len(s.Name) > 64 || len(s.Unit) > 16 || (s.Better != "lower" && s.Better != "higher") {
			t.Errorf("bad metric spec %+v", s)
		}
		seen[s.Name] = true
		hasSetup = hasSetup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s has bound %v", s.Name, s.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, w := range workloads {
		if len(w.why) > 200 || seen[w.name] {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
		seen[w.name] = true
	}
}
