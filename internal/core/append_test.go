package core

import (
	"slices"
	"testing"

	"hgs/internal/graph"
	"hgs/internal/kvstore"
)

// appendConfigs are the configurations the write-path tests run: every
// configsUnderTest config plus random placement with Replicate1Hop, the
// one resumable layout that rewrites aux rows in place.
func appendConfigs() map[string]Config {
	cfgs := configsUnderTest()
	random1Hop := smallConfig()
	random1Hop.Replicate1Hop = true
	cfgs["random1hop"] = random1Hop
	return cfgs
}

// buildThenAppend builds over events[:prefix] and appends the rest in
// batches of size batch.
func buildThenAppend(tb testing.TB, cfg Config, events []graph.Event, prefix, batch int) *TGI {
	tb.Helper()
	store := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 1})
	tgi, err := Build(store, cfg, events[:prefix])
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	for off := prefix; off < len(events); off += batch {
		if err := tgi.Append(events[off:min(off+batch, len(events))]); err != nil {
			tb.Fatalf("Append at %d: %v", off, err)
		}
	}
	return tgi
}

// TestAppendRowsEqualBuild pins the write path: a Build over a prefix
// followed by Appends stores exactly the rows one Build over all the
// events stores, whether a batch extends the trailing span in place or
// re-places it. The prefix ends mid-eventlist, and the batches cross
// eventlist and timespan boundaries.
func TestAppendRowsEqualBuild(t *testing.T) {
	events := genHistory(21, 500, 40)
	for name, cfg := range appendConfigs() {
		t.Run(name, func(t *testing.T) { appendRowsEqualBuild(t, cfg, events) })
	}
	// Over a growing id space the span's micro-partition counts change
	// on many appends, each of which re-places the span.
	t.Run("random/growing", func(t *testing.T) {
		cfg := smallConfig()
		events := genHistory(22, 400, 400)
		appendRowsEqualBuild(t, cfg, events)
		tgi := buildSmall(t, cfg, events[:130])
		replaced := 0
		for off := 130; off < 240; off += 7 {
			before, _ := tgi.loadTimespanMeta(1)
			npids := before.NPids
			if err := tgi.Append(events[off:min(off+7, 240)]); err != nil {
				t.Fatal(err)
			}
			if after, _ := tgi.loadTimespanMeta(1); !slices.Equal(after.NPids, npids) {
				replaced++
			}
		}
		if replaced == 0 {
			t.Fatal("no append changed the span's micro-partition counts")
		}
	})
}

// appendRowsEqualBuild checks TestAppendRowsEqualBuild's claim for one
// configuration and history, over a 130-event prefix.
func appendRowsEqualBuild(t *testing.T, cfg Config, events []graph.Event) {
	want := storeDigest(buildSmall(t, cfg, events).Store())
	for _, batch := range []int{1, 7, 500} {
		tgi := buildThenAppend(t, cfg, events, 130, batch)
		if got := storeDigest(tgi.Store()); got != want {
			t.Fatalf("batches of %d: stored rows digest %s, one Build stores %s", batch, got, want)
		}
	}
}

// TestAppendWritesOnlyWhatChanged counts the rows an Append that keeps
// the trailing span's placement writes (kvstore Metrics.Writes, deletes
// included): at most the dirty tree deltas — those covering the open or
// new leaves — and their children, once per micro-partition; the open
// and new eventlists' micro-eventlists; one version chain per node the
// batch touches; and the timespan and graph metadata rows.
func TestAppendWritesOnlyWhatChanged(t *testing.T) {
	events := genHistory(21, 900, 40)
	cfg := smallConfig()
	const prefix, batch, spanEnd = 130, 20, 240 // the batches stay in span 1
	tgi := buildSmall(t, cfg, events[:prefix])
	checked := 0
	for off := prefix; off < spanEnd; off += batch {
		b := events[off:min(off+batch, spanEnd)]
		before, err := tgi.loadTimespanMeta(1)
		if err != nil {
			t.Fatal(err)
		}
		// The nodes the batch touches, its RemoveNodes expanded.
		g := oracle(events, events[off-1].Time)
		touched := make(map[graph.NodeID]bool)
		for _, raw := range b {
			for _, e := range graph.ExpandRemoveNode(g, raw) {
				touched[e.Node] = true
				if e.Kind.IsEdge() {
					touched[e.Other] = true
				}
				g.Apply(e)
			}
		}
		writes := tgi.Store().Metrics().Writes
		if err := tgi.Append(b); err != nil {
			t.Fatal(err)
		}
		writes = tgi.Store().Metrics().Writes - writes
		after, err := tgi.loadTimespanMeta(1)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(after.NPids, before.NPids) {
			continue // re-placed: the whole span is written again
		}
		npids := 0
		for _, n := range after.NPids {
			npids += n
		}
		first := before.EventlistCount + 1 // the first leaf the append cuts
		if before.EventCount < before.EventlistCount*cfg.EventlistSize {
			first-- // the open leaf is cut again
		}
		rewritten := 0 // dirty tree deltas and their children
		var count func(n *treeNode)
		count = func(n *treeNode) {
			if n.hi <= first {
				return
			}
			rewritten += len(n.children)
			for _, c := range n.children {
				count(c)
			}
		}
		root := shapeTree(after.EventlistCount+1, cfg.Arity, tgi.spanStride())
		count(root)
		rewritten++ // the root
		eventlists := after.EventlistCount - (first - 1)
		bound := int64(rewritten*npids + eventlists*npids + len(touched) + 2)
		if writes > bound {
			t.Fatalf("append at %d wrote %d rows, bound %d (%d tree deltas, %d eventlists, %d pids, %d nodes)",
				off, writes, bound, rewritten, eventlists, npids, len(touched))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no append kept the span's placement")
	}
	end := events[spanEnd-1].Time
	got, err := tgi.GetSnapshot(end, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(oracle(events, end)) {
		t.Fatal("snapshot after the appends differs from the oracle")
	}
}
