package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"time"

	"hgs/internal/delta"
	"hgs/internal/fetch"
	"hgs/internal/graph"
	"hgs/internal/partition"
)

// Append ingests a batch of events at the end of the history (paper
// §4.4, Update: the new events are indexed and merged into the TGI).
// Into an empty index it is the index's construction (§4.4, timed as
// the "build" op), which rejects an empty batch; into a loaded index an
// empty batch is a no-op. Events are cut into timespans of
// TimespanEvents raw events, each written by a fresh span writer
// (writeSpan). Full timespans are immutable. A trailing partial
// timespan is extended in place by the span writer resumed from its
// stored rows (resumeSpan), which rewrites only the rows the batch
// reaches — unless the batch changes the span's placement (its
// micro-partition counts, or any batch under locality partitioning):
// then the span is re-placed, written again from its start by a fresh
// writer over its recovered raw events and the batch. Rows are written
// first, then each span's metadata, then the graph metadata; the
// decoded-delta cache is purged last.
func (t *TGI) Append(events []graph.Event) error {
	start := time.Now()
	gm, err := t.loadGraphMeta()
	op := "append"
	if errors.Is(err, ErrNotLoaded) {
		op, err = "build", nil
	}
	defer t.observeDur(op, start)
	switch {
	case err != nil:
		return err
	case gm == nil && len(events) == 0:
		return fmt.Errorf("core: cannot build an index over zero events")
	case len(events) == 0:
		return nil
	}
	if err := validateEvents(events); err != nil {
		return err
	}
	w, rest, tsid := graph.New(), events, 0
	next := GraphMeta{Format: Format, Name: "tgi", Start: events[0].Time, Config: t.cfg}
	if gm != nil {
		if events[0].Time <= gm.End {
			return fmt.Errorf("core: append batch starts at %d, not after indexed history end %d", events[0].Time, gm.End)
		}
		last, err := t.loadTimespanMeta(gm.TimespanCount - 1)
		if err != nil {
			return err
		}
		if last.EventCount < t.cfg.TimespanEvents {
			w, rest, err = t.appendToSpan(last, events)
		} else {
			w, err = t.GetSnapshot(gm.End, nil)
		}
		if err != nil {
			return err
		}
		next, tsid = *gm, last.TSID+1
	}
	for off := 0; off < len(rest); off += t.cfg.TimespanEvents {
		end := min(off+t.cfg.TimespanEvents, len(rest))
		if w, err = t.writeSpan(tsid, w, rest[off:end]); err != nil {
			return err
		}
		tsid++
	}
	next.Events += len(events)
	next.End = events[len(events)-1].Time
	next.TimespanCount = tsid
	if gm != nil {
		// The trailing span may have been re-placed: drop the span metas
		// and pid maps cached for it. A build cached only what it wrote.
		t.meta.invalidate()
	}
	if err := t.storeGraphMeta(&next); err != nil {
		return err
	}
	// The trailing timespan's rewritten rows keep their keys; drop any
	// decoded parts cached for the old ones.
	t.fx.Cache().Purge()
	return nil
}

// appendToSpan indexes the head of events that fits into the partial
// trailing span tm, extending it in place or re-placing it (see Append),
// and returns the state at the span's end and the events left over.
func (t *TGI) appendToSpan(tm *TimespanMeta, events []graph.Event) (*graph.Graph, []graph.Event, error) {
	if t.cfg.Partitioning != partition.Locality {
		batch := events[:min(len(events), t.cfg.TimespanEvents-tm.EventCount)]
		sw, err := t.resumeSpan(tm, batch)
		if err != nil {
			return nil, nil, err
		}
		if sw != nil {
			w, err := sw.write(batch)
			return w, events[len(batch):], err
		}
	}
	raw, err := t.spanEvents(tm)
	if err != nil {
		return nil, nil, err
	}
	n := min(len(events), t.cfg.TimespanEvents-len(raw))
	carry := graph.New()
	if tm.TSID > 0 {
		// The state just before the span started.
		if carry, err = t.GetSnapshot(tm.Start-1, nil); err != nil {
			return nil, nil, err
		}
	}
	t.dropTimespan(tm.TSID)
	w, err := t.writeSpan(tm.TSID, carry, append(raw, events[:n]...))
	return w, events[n:], err
}

// storedSpan is what a resumed spanWriter reads of the span it extends,
// in one plan: the tree deltas on the path to the span's last leaf — the
// plan of GetSnapshot at the span's end — and their children, the open
// eventlist, and with Replicate1Hop the aux rows at the current
// eventlist's start leaf and at the open leaf and the open aux
// eventlist; then, in a second plan, the version chains of the nodes
// the batch can touch.
type storedSpan struct {
	t      *TGI
	tsid   int
	res    *fetch.Result
	openEl int // the open eventlist, -1 when the last one is full
	// parent maps each tree delta read, but the root, to its parent.
	parent map[int]int
	chains map[graph.NodeID][]vcEntry
	// contents[sid] memoizes the full content of the tree deltas read.
	contents []map[int]*delta.Delta
}

// resumeSpan opens a spanWriter that extends the stored trailing span tm
// by batch, or returns nil when batch changes the span's placement.
// A batch adds to a sid's node count the ids it touches that have no
// version chain in the span and are absent from the state at its end:
// exactly the ids a fresh writer over the whole span would count beyond
// those it counted before the batch.
func (t *TGI) resumeSpan(tm *TimespanMeta, batch []graph.Event) (*spanWriter, error) {
	ns, l := t.cfg.HorizontalPartitions, t.cfg.EventlistSize
	ctx := context.Background()
	n := tm.EventlistCount + 1 // leaves
	s := &storedSpan{t: t, tsid: tm.TSID, openEl: -1, parent: make(map[int]int), contents: make([]map[int]*delta.Delta, ns)}
	el := tm.EventlistCount
	if tm.EventCount < el*l {
		el--
		s.openEl = el
	}
	for _, p := range shapeTree(n, tm.Arity, t.spanStride()).pathTo(n - 1) {
		for _, c := range p.children {
			s.parent[c.did] = p.did
		}
	}
	plan := fetch.NewPlan()
	for sid := 0; sid < ns; sid++ {
		s.contents[sid] = make(map[int]*delta.Delta)
		planSnapshot(plan, tm, sid, n-1)
		for did := range s.parent {
			plan.Group(TableDeltas, tm.TSID, sid, did)
		}
		if s.openEl >= 0 {
			plan.Group(TableEvents, tm.TSID, sid, el)
		}
		if t.cfg.Replicate1Hop {
			plan.Group(TableAux, tm.TSID, sid, el)
			if s.openEl >= 0 {
				plan.Group(TableAux, tm.TSID, sid, el+1)
				plan.Group(TableAuxEvents, tm.TSID, sid, el)
			}
		}
	}
	var err error
	if s.res, err = t.fx.ExecCtx(ctx, plan, t.cfg.clients(nil), nil); err != nil {
		return nil, err
	}
	// The carry: the state at the span's end, its last leaf.
	parts := make([]*graph.Graph, ns)
	if err := fetch.ParallelCtx(ctx, runtime.GOMAXPROCS(0), ns, func(sid int) error {
		var err error
		parts[sid], err = t.assembleSnapshot(s.res, tm, sid, n-1, tm.End)
		return err
	}); err != nil {
		return nil, err
	}
	w := graph.DisjointUnion(t.sidOf, parts...)

	// The nodes the batch can touch: the ids it names, and the neighbors
	// of the nodes it removes (a neighbor linked during the batch is named
	// by the batch).
	touched := make(map[graph.NodeID]struct{})
	for _, e := range batch {
		touched[e.Node] = struct{}{}
		if e.Kind.IsEdge() {
			touched[e.Other] = struct{}{}
		}
		if ns := w.Node(e.Node); e.Kind == graph.RemoveNode && ns != nil {
			for k := range ns.Edges {
				touched[k.Other] = struct{}{}
			}
		}
	}
	vplan := fetch.NewPlan()
	for id := range touched {
		vplan.Get(TableVersions, placementKey(tm.TSID, t.sidOf(id)), nodeCKey(id))
	}
	vres, err := t.fx.ExecCtx(ctx, vplan, t.cfg.clients(nil), nil)
	if err != nil {
		return nil, err
	}
	s.chains = make(map[graph.NodeID][]vcEntry, len(touched))
	nodes := slices.Clone(tm.Nodes)
	for id := range touched {
		blob, ok := vres.Get(TableVersions, placementKey(tm.TSID, t.sidOf(id)), nodeCKey(id))
		if !ok {
			if !w.Has(id) {
				nodes[t.sidOf(id)]++
			}
			continue
		}
		if s.chains[id], err = decodeVC(blob); err != nil {
			return nil, err
		}
	}
	npids := t.npidsFor(nodes)
	if !slices.Equal(npids, tm.NPids) {
		return nil, nil
	}

	m := *tm
	m.LeafTimes = slices.Clone(tm.LeafTimes[:el+1])
	m.EventlistCount = el
	sw := &spanWriter{t: t, tm: &m, w: w, sp: &spanPartitioning{nodes: nodes, npids: npids},
		el: el, filled: tm.EventCount - el*l, vcs: make(map[graph.NodeID][]vcEntry),
		lists: make([]map[int][]graph.Event, ns), auxLists: make([]map[int][]graph.Event, ns),
		leaves: make([][]*delta.Delta, ns), stored: s}
	if t.cfg.Replicate1Hop {
		// The frontier at the current eventlist's start leaf is the id set
		// of the aux rows stored there.
		sw.frontiers = make([]map[graph.NodeID]map[int]struct{}, ns)
		for sid := range sw.frontiers {
			fm := make(map[graph.NodeID]map[int]struct{})
			for _, p := range s.res.Group(TableAux, tm.TSID, sid, el) {
				for _, id := range p.IDs() {
					if fm[id] == nil {
						fm[id] = make(map[int]struct{})
					}
					fm[id][p.PID] = struct{}{}
				}
			}
			sw.frontiers[sid] = fm
		}
	}
	return sw, nil
}

// events returns the stored events of micro-eventlist (sid, pid) of the
// open eventlist in table, clipped so that appending copies them.
func (s *storedSpan) events(table string, sid, pid int) []graph.Event {
	parts := s.res.Group(table, s.tsid, sid, s.openEl)
	i := sort.Search(len(parts), func(i int) bool { return parts[i].PID >= pid })
	if i < len(parts) && parts[i].PID == pid {
		return slices.Clip(parts[i].Events)
	}
	return nil
}

// deleteStale deletes the rows of group (table, sid, did) read from the
// store whose pid a rewrite of the group did not write.
func (s *storedSpan) deleteStale(table string, sid, did int, written map[int]bool) {
	for _, p := range s.res.Group(table, s.tsid, sid, did) {
		if !written[p.PID] {
			s.t.store.Delete(table, placementKey(s.tsid, sid), deltaCKey(did, p.PID))
		}
	}
}

// content returns the full content of stored tree delta did in sid: its
// parent's content with its own rows added (a stored difference holds no
// tombstones, and none of its ids is in the parent).
func (s *storedSpan) content(sid, did int) (*delta.Delta, error) {
	if d, ok := s.contents[sid][did]; ok {
		return d, nil
	}
	d := delta.New()
	if p, ok := s.parent[did]; ok {
		base, err := s.content(sid, p)
		if err != nil {
			return nil, err
		}
		d.Nodes = maps.Clone(base.Nodes)
	}
	for _, part := range s.res.Group(TableDeltas, s.tsid, sid, did) {
		states, err := part.States()
		if err != nil {
			return nil, err
		}
		for _, ns := range states {
			d.Nodes[ns.ID] = ns
		}
	}
	s.contents[sid][did] = d
	return d, nil
}

// spanEvents recovers a timespan's raw event stream from its stored
// micro-eventlists: merged and deduplicated, minus the RemoveEdges that
// share a RemoveNode's time. Raw times strictly increase, so those are
// exactly the RemoveNode's expansion.
func (t *TGI) spanEvents(tm *TimespanMeta) ([]graph.Event, error) {
	var lists [][]graph.Event
	for sid := 0; sid < t.cfg.HorizontalPartitions; sid++ {
		rows := t.store.ScanPartition(TableEvents, placementKey(tm.TSID, sid))
		for _, row := range rows {
			evs, err := t.cdc.DecodeEvents(row.Value)
			if err != nil {
				return nil, fmt.Errorf("core: recover span %d events: %w", tm.TSID, err)
			}
			lists = append(lists, evs)
		}
	}
	all := mergeSortEvents(lists)
	out := all[:0]
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j].Time == all[i].Time {
			j++
		}
		if all[j-1].Kind == graph.RemoveNode { // it ends its time's group
			i = j - 1
		}
		out = append(out, all[i:j]...)
		i = j
	}
	return out, nil
}

// dropTimespan removes every stored row of a timespan across all tables.
func (t *TGI) dropTimespan(tsid int) {
	for sid := 0; sid < t.cfg.HorizontalPartitions; sid++ {
		pkey := placementKey(tsid, sid)
		for _, table := range []string{TableDeltas, TableEvents, TableVersions, TableMicroPart, TableAux, TableAuxEvents} {
			t.store.DropPartition(table, pkey)
		}
	}
	t.store.Delete(TableTimespans, fmt.Sprintf("t%05d", tsid), "meta")
}
