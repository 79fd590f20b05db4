package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hgs/internal/fetch"
	"hgs/internal/graph"
	"hgs/internal/temporal"
)

// endStateHistory is genHistory with a script laid over each 25-event
// stretch of every 120-event span (smallConfig's eventlists; the bigLists
// config's 60-event lists hold whole stretches too): a node gets an
// attribute and an edge, is removed and re-created with a new edge, a
// node is born, a self-loop is added and attributed, an edge attribute
// is set and deleted, and a node attribute deleted. Every other event is
// random over ids [0, idSpace); born nodes take fresh ids.
func endStateHistory(seed int64, n, idSpace int) []graph.Event {
	rng := rand.New(rand.NewSource(seed))
	random := genHistory(seed, n, idSpace)
	evs := make([]graph.Event, 0, n)
	var u, a, b graph.NodeID
	for i := 0; i < n; i++ {
		e := graph.Event{Time: temporal.Time(10 * (i + 1))}
		pick := func() graph.NodeID { return graph.NodeID(rng.Intn(idSpace)) }
		switch (i % 120) % 25 {
		case 3:
			u = pick()
			e.Kind, e.Node, e.Key, e.Value = graph.SetNodeAttr, u, "label", fmt.Sprint(i)
		case 4:
			e.Kind, e.Node, e.Other = graph.AddEdge, u, pick()
		case 5:
			e.Kind, e.Node = graph.RemoveNode, u
		case 7:
			e.Kind, e.Node = graph.AddNode, u
		case 8:
			e.Kind, e.Node, e.Other = graph.AddEdge, pick(), u
		case 10:
			e.Kind, e.Node = graph.AddNode, graph.NodeID(idSpace+i)
		case 11:
			e.Kind, e.Node, e.Other = graph.AddEdge, graph.NodeID(idSpace+i-1), pick()
		case 12:
			a = pick()
			e.Kind, e.Node, e.Other = graph.AddEdge, a, a
		case 13:
			e.Kind, e.Node, e.Other, e.Key, e.Value = graph.SetEdgeAttr, a, a, "w", fmt.Sprint(i)
		case 14:
			a, b = pick(), pick()
			e.Kind, e.Node, e.Other, e.Key, e.Value = graph.SetEdgeAttr, a, b, "w", fmt.Sprint(i)
		case 16:
			e.Kind, e.Node, e.Other, e.Key = graph.DelEdgeAttr, a, b, "w"
		case 17:
			e.Kind, e.Node, e.Key = graph.DelNodeAttr, u, "label"
		default:
			r := random[i]
			r.Time = e.Time
			e = r
		}
		evs = append(evs, e)
	}
	return evs
}

// replayOracle holds the replay of a history at each of some times.
type replayOracle map[temporal.Time]*graph.Graph

// newReplayOracle replays events once, keeping a copy of the graph at
// each of times.
func newReplayOracle(events []graph.Event, times []temporal.Time) replayOracle {
	times = slices.Clone(times)
	slices.Sort(times)
	o := make(replayOracle, len(times))
	g := graph.New()
	i := 0
	for _, tt := range times {
		for ; i < len(events) && events[i].Time <= tt; i++ {
			g.Apply(events[i])
		}
		o[tt] = g.Clone()
	}
	return o
}

// leafProbes returns probe times — every event time, and every third
// one plus five — grouped by the leaf they fall in, each group
// ascending, and all of them.
func leafProbes(t *testing.T, tgi *TGI, events []graph.Event) (leaves [][]temporal.Time, all []temporal.Time) {
	t.Helper()
	byLeaf := map[[2]int][]temporal.Time{}
	var keys [][2]int
	for i, e := range events {
		probes := []temporal.Time{e.Time}
		if i%3 == 0 {
			probes = append(probes, e.Time+5)
		}
		for _, tt := range probes {
			tm, err := tgi.timespanFor(tt)
			if err != nil {
				t.Fatal(err)
			}
			k := [2]int{tm.TSID, tm.leafFor(tt)}
			if _, ok := byLeaf[k]; !ok {
				keys = append(keys, k)
			}
			byLeaf[k] = append(byLeaf[k], tt)
			all = append(all, tt)
		}
	}
	for _, k := range keys {
		leaves = append(leaves, byLeaf[k])
	}
	return leaves, all
}

// sweepOrders returns the orders a leaf's times are swept in: ascending,
// descending, and shuffled with each time repeated.
func sweepOrders(times []temporal.Time, rng *rand.Rand) map[string][]temporal.Time {
	desc := slices.Clone(times)
	slices.Reverse(desc)
	shuffled := slices.Clone(times)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var twice []temporal.Time
	for _, tt := range shuffled {
		twice = append(twice, tt, tt)
	}
	return map[string][]temporal.Time{"ascending": times, "descending": desc, "shuffled, repeated": twice}
}

// checkEndsInstalled checks the end states behind a whole snapshot g at
// tt: in each cached boundary micro-eventlist of tt's leaf, every owned
// node whose last event is at or before tt has a published end state,
// and g holds exactly that state — the same pointer, or no node when the
// node is absent at the end of the list.
func checkEndsInstalled(t *testing.T, tgi *TGI, g *graph.Graph, tt temporal.Time) {
	t.Helper()
	tm, err := tgi.timespanFor(tt)
	if err != nil {
		t.Fatal(err)
	}
	leaf := tm.leafFor(tt)
	for sid := 0; sid < tgi.cfg.HorizontalPartitions; sid++ {
		o, err := tgi.ownerOf(tm, sid)
		if err != nil {
			t.Fatal(err)
		}
		parts, ok := tgi.fx.Cache().Group(fetch.GroupKey{Table: TableEvents, TSID: tm.TSID, SID: sid, DID: leaf})
		if !ok {
			continue
		}
		for _, p := range parts {
			x := p.Ends()
			for s := int32(0); s < int32(x.Len()); s++ {
				id := x.ID(s)
				if x.Last(s) > tt || !o.owns(id, p.PID) {
					continue
				}
				end, ok := x.End(s)
				if !ok {
					t.Fatalf("snapshot@%d: node %d is done (last event %d) but has no end state", tt, id, x.Last(s))
				}
				if got := g.Node(id); got != end {
					t.Fatalf("snapshot@%d: node %d holds %p = %v, not its end state %p = %v", tt, id, got, got, end, end)
				}
			}
		}
	}
}

// TestWarmSweepMatchesReplay sweeps snapshot times over each leaf in
// several orders, each from a cold cache, over a history whose
// eventlists re-create removed nodes, give birth to nodes, and set and
// delete edge, self-loop and node attributes. Every answer equals the
// replay of the log and the answer of a cache-off handle, and installs
// the end state of each node done by its time by pointer — so a wrong
// end state, one published too early or one used for a node with events
// after the time, fails, and so does a replay that writes a node after
// installing its end state.
func TestWarmSweepMatchesReplay(t *testing.T) {
	events := endStateHistory(21, 300, 30)
	for name, cfg := range configsUnderTest() {
		t.Run(name, func(t *testing.T) {
			tgi := buildSmall(t, cfg, events)
			offCfg := cfg
			offCfg.CacheBytes = -1
			off, _, err := Attach(tgi.store, offCfg)
			if err != nil {
				t.Fatal(err)
			}
			leaves, all := leafProbes(t, tgi, events)
			want := newReplayOracle(events, all)
			offAt := map[temporal.Time]*graph.Graph{}
			rng := rand.New(rand.NewSource(5))
			for _, times := range leaves {
				for order, sweep := range sweepOrders(times, rng) {
					tgi.fx.Cache().Purge()
					for _, tt := range sweep {
						got, err := tgi.GetSnapshot(tt, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !got.Equal(want[tt]) {
							t.Fatalf("%s sweep: snapshot@%d differs from the replay of the log", order, tt)
						}
						if offAt[tt] == nil {
							if offAt[tt], err = off.GetSnapshot(tt, nil); err != nil {
								t.Fatal(err)
							}
						}
						if !got.Equal(offAt[tt]) {
							t.Fatalf("%s sweep: snapshot@%d differs from the cache-off answer", order, tt)
						}
						checkEndsInstalled(t, tgi, got, tt)
					}
				}
			}
		})
	}
}

// TestWarmSweepMatchesReplayConcurrent has four goroutines snapshot
// random times of one leaf at once, from a cold cache, so replays
// publish and install the same end states concurrently; under -race it
// proves the publication safe, and every answer equals the replay of
// the log.
func TestWarmSweepMatchesReplayConcurrent(t *testing.T) {
	events := endStateHistory(22, 300, 30)
	tgi := buildSmall(t, smallConfig(), events)
	leaves, all := leafProbes(t, tgi, events)
	want := newReplayOracle(events, all)
	times := slices.MaxFunc(leaves, func(a, b []temporal.Time) int { return len(a) - len(b) })
	for round := 0; round < 4; round++ {
		tgi.fx.Cache().Purge()
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 12; i++ {
					tt := times[rng.Intn(len(times))]
					g, err := tgi.GetSnapshot(tt, nil)
					if err == nil && !g.Equal(want[tt]) {
						err = fmt.Errorf("snapshot@%d differs from the replay of the log", tt)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}(int64(round*4 + w))
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestEndStatesChargedToCache checks that the end index and the end
// states a sweep publishes are charged to the cache, that Purge drops
// them and a sweep after it charges them again alike, and that sweeps
// through a cache too small for the index, which evicts eventlist
// groups with their end states, give the same answers as the log.
// TestEndsChargedToTheirEntry (internal/fetch) checks eviction's refund.
func TestEndStatesChargedToCache(t *testing.T) {
	events := endStateHistory(23, 300, 30)
	tgi := buildSmall(t, smallConfig(), events)
	cache := tgi.fx.Cache()
	tm, err := tgi.timespanFor(events[len(events)/2].Time)
	if err != nil {
		t.Fatal(err)
	}
	leaf := 1
	lo, hi := tm.LeafTimes[leaf], tm.LeafTimes[leaf+1]
	var times []temporal.Time
	for _, e := range events {
		if e.Time > lo && e.Time < hi {
			times = append(times, e.Time)
		}
	}
	want := newReplayOracle(events, times)
	sweep := func(what string) {
		t.Helper()
		for _, tt := range times {
			g, err := tgi.GetSnapshot(tt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(want[tt]) {
				t.Fatalf("%s: snapshot@%d differs from the replay of the log", what, tt)
			}
		}
	}

	// Load the leaf's groups without replaying anything.
	plan := fetch.NewPlan()
	for sid := 0; sid < tgi.cfg.HorizontalPartitions; sid++ {
		planSnapshot(plan, tm, sid, leaf)
	}
	if _, err := tgi.fx.Exec(plan, 1); err != nil {
		t.Fatal(err)
	}
	loaded := cache.Stats().Bytes
	sweep("first sweep")
	swept := cache.Stats().Bytes
	t.Logf("leaf groups %d bytes, after the sweep %d", loaded, swept)
	if swept <= loaded {
		t.Fatalf("a sweep left the cache at %d bytes, %d before: end states are not charged", swept, loaded)
	}

	cache.Purge()
	if b := cache.Stats().Bytes; b != 0 {
		t.Fatalf("Purge left %d bytes charged", b)
	}
	sweep("sweep after Purge")
	if b := cache.Stats().Bytes; b != swept {
		t.Fatalf("the sweep after Purge charged %d bytes, the first one %d", b, swept)
	}

	// A cache that holds about one leaf's groups and end states evicts
	// them as a shuffled sweep of every time moves from leaf to leaf.
	small := tgi.cfg
	small.CacheBytes = 2 * swept
	tight, _, err := Attach(tgi.store, small)
	if err != nil {
		t.Fatal(err)
	}
	leaves, all := leafProbes(t, tgi, events)
	want = newReplayOracle(events, all)
	rand.New(rand.NewSource(9)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for _, tt := range all {
		g, err := tight.GetSnapshot(tt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(want[tt]) {
			t.Fatalf("tight cache: snapshot@%d differs from the replay of the log", tt)
		}
	}
	if st := tight.fx.Cache().Stats(); st.Evictions < int64(len(leaves)) || st.Bytes > st.MaxBytes {
		t.Fatalf("tight cache: %d evictions over %d leaves, %d of %d bytes", st.Evictions, len(leaves), st.Bytes, st.MaxBytes)
	}
}

// TestEndStatesServeEveryWholePartitionCaller checks that the callers
// that replay whole partitions — snapshots, the SoN fetch's initial
// states and Append's carry — replay on the same base path, so the end
// states one publishes are right for the others: SoN initial states
// after a snapshot sweep, snapshots after a SoN sweep from a cold cache,
// and an index appended to after a warm sweep all equal the replay of
// the log.
func TestEndStatesServeEveryWholePartitionCaller(t *testing.T) {
	events := endStateHistory(24, 300, 30)
	for name, cfg := range configsUnderTest() {
		t.Run(name, func(t *testing.T) {
			tgi := buildSmall(t, cfg, events[:200])
			_, all := leafProbes(t, tgi, events[:200])
			var times []temporal.Time
			for i := 0; i < len(all); i += 3 {
				times = append(times, all[i])
			}
			want := newReplayOracle(events, times)
			snapshots := func(what string) {
				t.Helper()
				for _, tt := range times {
					g, err := tgi.GetSnapshot(tt, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !g.Equal(want[tt]) {
						t.Fatalf("%s: snapshot@%d differs from the replay of the log", what, tt)
					}
				}
			}
			sons := func(what string) {
				t.Helper()
				for _, tt := range times {
					perSid, err := tgi.FetchNodeHistories(temporal.NewInterval(tt, tt+7), nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					got := graph.New()
					for _, hs := range perSid {
						for _, h := range hs {
							if h.Initial != nil {
								got.PutNode(h.Initial)
							}
						}
					}
					if !got.Equal(want[tt]) {
						t.Fatalf("%s: SoN initial states at %d differ from the replay of the log", what, tt)
					}
				}
			}
			snapshots("snapshot sweep")
			sons("SoN sweep after snapshots")
			tgi.fx.Cache().Purge()
			sons("SoN sweep from a cold cache")
			snapshots("snapshot sweep after SoNs")

			if err := tgi.Append(events[200:]); err != nil {
				t.Fatal(err)
			}
			_, all = leafProbes(t, tgi, events)
			want = newReplayOracle(events, all)
			for _, tt := range all {
				g, err := tgi.GetSnapshot(tt, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !g.Equal(want[tt]) {
					t.Fatalf("after Append on a warm cache: snapshot@%d differs from the replay of the log", tt)
				}
			}
		})
	}
}
