package core

import (
	"testing"

	"hgs/internal/fetch"
	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/temporal"
)

// multipointIndex builds a two-timespan index over 2,000 events (times
// 10..20,000; the spans meet at 10,000).
func multipointIndex(t *testing.T, cacheBytes int64) (*TGI, []graph.Event) {
	t.Helper()
	events := genHistory(22, 2000, 120)
	cfg := smallConfig()
	cfg.TimespanEvents = 1000
	cfg.CacheBytes = cacheBytes
	return buildSmall(t, cfg, events), events
}

// unionGroups counts the distinct groups of the points' snapshot plans
// put together, and of the points' plans each on its own.
func unionGroups(t *testing.T, tgi *TGI, points []temporal.Time) (union, sum int) {
	t.Helper()
	all := fetch.NewPlan()
	for _, tt := range points {
		tm, err := tgi.timespanFor(tt)
		if err != nil {
			t.Fatal(err)
		}
		one := fetch.NewPlan()
		for sid := 0; sid < tgi.cfg.HorizontalPartitions; sid++ {
			planSnapshot(all, tm, sid, tm.leafFor(tt))
			planSnapshot(one, tm, sid, tm.leafFor(tt))
		}
		g, _, _, _ := one.Size()
		sum += g
	}
	union, _, _, _ = all.Size()
	return union, sum
}

// TestSnapshotsAtReadsEachKeyOnce checks that a multipoint snapshot is
// one query: one plan execution over the union of the points' reads, so
// a cold call issues exactly one KV read per distinct group, however
// many points share it, and every answer equals the replay of the log.
func TestSnapshotsAtReadsEachKeyOnce(t *testing.T) {
	sets := map[string]func(tgi *TGI) []temporal.Time{
		"one-leaf": func(tgi *TGI) []temporal.Time {
			tm, err := tgi.timespanFor(5000)
			if err != nil {
				t.Fatal(err)
			}
			leaf := tm.leafFor(5000)
			lo, hi := tm.LeafTimes[leaf], tm.LeafTimes[leaf+1]
			var pts []temporal.Time
			for i := 0; i < 8; i++ {
				pts = append(pts, lo+(hi-lo)*temporal.Time(i)/8)
			}
			return pts
		},
		"two-spans": func(*TGI) []temporal.Time {
			var pts []temporal.Time
			for i := 0; i < 8; i++ {
				pts = append(pts, temporal.Time(9650+100*i))
			}
			return pts
		},
		"unsorted-repeated": func(*TGI) []temporal.Time {
			return []temporal.Time{15300, 2100, 9990, 2100, 10020, 700, 19990, 15300}
		},
	}
	for _, cache := range []struct {
		name  string
		bytes int64
	}{{"cache-off", -1}, {"cache-default", 0}} {
		for name, points := range sets {
			t.Run(cache.name+"/"+name, func(t *testing.T) {
				tgi, events := multipointIndex(t, cache.bytes)
				tgi.fx.Cache().Purge()
				pts := points(tgi)
				if name == "one-leaf" {
					tm, _ := tgi.timespanFor(pts[0])
					for _, tt := range pts {
						if tm.leafFor(tt) != tm.leafFor(pts[0]) || tt < tm.Start {
							t.Fatalf("point %d leaves the leaf region of %d", tt, pts[0])
						}
					}
				}
				before := len(tgi.PlanTraces())
				gs, err := tgi.GetSnapshotsAt(pts, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i, tt := range pts {
					if !gs[i].Equal(oracle(events, tt)) {
						t.Fatalf("snapshot %d at %d differs from the replay of the log", i, tt)
					}
				}
				trs := tgi.PlanTraces()[before:]
				if len(trs) != 1 || trs[0].Op != "snapshots" {
					t.Fatalf("the call left %d trace records, want one snapshots record", len(trs))
				}
				union, sum := unionGroups(t, tgi, pts)
				t.Logf("%d points: %d KV reads, %d round trips; union plan %d groups, per-point plans %d",
					len(pts), trs[0].KVReads, trs[0].RoundTrips, union, sum)
				if trs[0].Execs != 1 {
					t.Fatalf("the call ran %d plan executions, want 1", trs[0].Execs)
				}
				if trs[0].KVReads != int64(union) {
					t.Fatalf("the call issued %d KV reads, want one per distinct group of the union plan (%d)", trs[0].KVReads, union)
				}
			})
		}
	}
}

// TestSoNFetchRunsOnePlan checks that a SoN fetch is one query: with the
// cache off, one plan execution reads each planned group once, and the
// events groups read are exactly the distinct eventlists of the
// partitions' snapshots at the window start and of the window, so the
// boundary eventlist the two share is read once.
func TestSoNFetchRunsOnePlan(t *testing.T) {
	tgi, _ := multipointIndex(t, -1)
	for _, iv := range []temporal.Interval{
		temporal.NewInterval(5050, 6200),
		temporal.NewInterval(9650, 10400),
	} {
		before := len(tgi.PlanTraces())
		if _, err := tgi.FetchNodeHistories(iv, nil, nil); err != nil {
			t.Fatal(err)
		}
		trs := tgi.PlanTraces()[before:]
		if len(trs) != 1 || trs[0].Op != "son-fetch" {
			t.Fatalf("%v: the call left %d trace records, want one son-fetch record", iv, len(trs))
		}
		tr := trs[0]
		t.Logf("%v: %d execs, %d groups, %d KV reads, %d round trips", iv, tr.Execs, tr.Groups, tr.KVReads, tr.RoundTrips)
		if tr.Execs != 1 {
			t.Fatalf("%v: the call ran %d plan executions, want 1", iv, tr.Execs)
		}
		if tr.KVReads != int64(tr.Groups) {
			t.Fatalf("%v: %d KV reads for %d planned groups", iv, tr.KVReads, tr.Groups)
		}
		type eventlist struct{ tsid, el int }
		els := map[eventlist]bool{}
		tm, err := tgi.timespanFor(iv.Start)
		if err != nil {
			t.Fatal(err)
		}
		if leaf := tm.leafFor(iv.Start); leaf < tm.EventlistCount {
			els[eventlist{tm.TSID, leaf}] = true
		}
		gm, err := tgi.loadGraphMeta()
		if err != nil {
			t.Fatal(err)
		}
		spans, err := tgi.overlappingSpans(gm, iv.Start+1, iv.End)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range spans {
			for el := 0; el < sp.EventlistCount; el++ {
				if sp.eventlistOverlaps(el, iv.Start, iv.End) {
					els[eventlist{sp.TSID, el}] = true
				}
			}
		}
		want := int64(len(els) * tgi.cfg.HorizontalPartitions)
		if got := tr.Tables[TableEvents].KVReads; got != want {
			t.Fatalf("%v: %d events group reads, want %d distinct", iv, got, want)
		}
	}
}

// statesAtPoints are unsorted, repeat a point, and reach before the
// first and after the last event of any history over (ts, te).
func statesAtPoints(ts, te temporal.Time) []temporal.Time {
	mid := ts + (te-ts)/2
	return []temporal.Time{mid, te - 1, ts, mid, ts + 1, te + 40, ts - 30, mid + 11, te - 1}
}

// TestNodeHistoryStatesAtMatchesStateAt checks the one forward replay
// against per-point replays, including a node removed and re-created
// inside the interval.
func TestNodeHistoryStatesAtMatchesStateAt(t *testing.T) {
	events := genHistory(4, 400, 30)
	tgi := buildSmall(t, smallConfig(), events)
	ts, te := temporal.Time(500), temporal.Time(3200)
	pts := statesAtPoints(ts, te)
	recreated := 0
	for id := graph.NodeID(0); id < 30; id++ {
		h, err := tgi.GetNodeHistory(id, ts, te, nil)
		if err != nil {
			t.Fatal(err)
		}
		removed := false
		for _, e := range h.Events {
			switch {
			case e.Kind == graph.RemoveNode && e.Node == id:
				removed = true
			case removed && e.Kind == graph.AddNode && e.Node == id:
				recreated++
				removed = false
			}
		}
		got := h.StatesAt(pts)
		for i, tt := range pts {
			want := h.StateAt(tt)
			if (got[i] == nil) != (want == nil) || (want != nil && !got[i].Equal(want)) {
				t.Fatalf("node %d: StatesAt[%d] (t=%d) = %+v, StateAt = %+v", id, i, tt, got[i], want)
			}
			if tt > ts && tt < te {
				if w := oracle(events, tt).Node(id); (w == nil) != (want == nil) || (w != nil && !w.Equal(want)) {
					t.Fatalf("node %d at %d: %+v, the replay of the log has %+v", id, tt, want, w)
				}
			}
		}
		if got[0] != nil && got[0] == got[3] {
			t.Fatalf("node %d: a repeated point shares its state", id)
		}
	}
	if recreated == 0 {
		t.Fatal("no node is removed and re-created inside the interval")
	}
}

// TestSubgraphHistoryStatesAtMatchesStateAt checks the one forward
// replay of a neighborhood history against per-point replays.
func TestSubgraphHistoryStatesAtMatchesStateAt(t *testing.T) {
	events := genHistory(7, 350, 25)
	tgi := buildSmall(t, smallConfig(), events)
	ts, te := temporal.Time(600), temporal.Time(3000)
	pts := statesAtPoints(ts, te)
	for id := graph.NodeID(0); id < 25; id += 3 {
		sh, err := tgi.GetKHopHistory(id, 2, ts, te, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := sh.StatesAt(pts)
		for i, tt := range pts {
			if want := sh.StateAt(tt); !got[i].Equal(want) {
				t.Fatalf("root %d: StatesAt[%d] (t=%d) = %v, StateAt = %v", id, i, tt, got[i], want)
			}
		}
		if got[0] == got[3] {
			t.Fatalf("root %d: a repeated point shares its graph", id)
		}
	}
}

// BenchmarkSnapshotsAtCold times an 8-point multipoint snapshot with the
// fetch cache disabled, so every row it plans is read from storage.
//
//	go test ./internal/core -run '^$' -bench SnapshotsAtCold -benchmem
func BenchmarkSnapshotsAtCold(b *testing.B) {
	events := genHistory(22, 2000, 120)
	cfg := smallConfig()
	cfg.TimespanEvents = 1000
	cfg.CacheBytes = -1
	store := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 1})
	tgi, err := Build(store, cfg, events)
	if err != nil {
		b.Fatal(err)
	}
	var pts []temporal.Time
	for i := 0; i < 8; i++ {
		pts = append(pts, temporal.Time(9650+100*i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tgi.GetSnapshotsAt(pts, nil); err != nil {
			b.Fatal(err)
		}
	}
}
