package core

import (
	"encoding/binary"
	"fmt"
	"maps"

	"hgs/internal/delta"
	"hgs/internal/graph"
	"hgs/internal/partition"
	"hgs/internal/temporal"
)

// spanPartitioning is a span's placement (paper §4.5): per horizontal
// partition, its node count, its number of micro-partitions and (for
// locality mode) the node→pid assignment over the collapsed span graph.
type spanPartitioning struct {
	nodes  []int
	npids  []int
	assign []partition.Assignment // nil for random mode
}

func (sp *spanPartitioning) pidOf(sid int, id graph.NodeID) int {
	if sp.assign != nil {
		if pid, ok := sp.assign[sid][id]; ok {
			return pid
		}
	}
	return partition.MixPID(id, sp.npids[sid])
}

// npidsFor sizes each horizontal partition by the nodes it holds over
// the span: max(1, ceil(nodes/PartitionSize)) micro-partitions.
func (t *TGI) npidsFor(nodes []int) []int {
	npids := make([]int, len(nodes))
	for sid, n := range nodes {
		npids[sid] = max(1, (n+t.cfg.PartitionSize-1)/t.cfg.PartitionSize)
	}
	return npids
}

// computeSpanPartitioning places a span given its start state and raw
// events. A sid's nodes are its nodes at the start plus every id the
// events touch (an event's Node, and its Other for an edge event): the
// ids the span's version chains cover, which a RemoveNode's expansion
// does not grow, since a removed node's neighbors exist at its removal.
func (t *TGI) computeSpanPartitioning(start *graph.Graph, events []graph.Event) *spanPartitioning {
	ns := t.cfg.HorizontalPartitions
	sp := &spanPartitioning{nodes: make([]int, ns)}
	start.Range(func(n *graph.NodeState) bool {
		sp.nodes[t.sidOf(n.ID)]++
		return true
	})
	added := make(map[graph.NodeID]struct{})
	see := func(id graph.NodeID) {
		if _, ok := added[id]; !ok && !start.Has(id) {
			added[id] = struct{}{}
			sp.nodes[t.sidOf(id)]++
		}
	}
	for _, e := range events {
		see(e.Node)
		if e.Kind.IsEdge() {
			see(e.Other)
		}
	}
	sp.npids = t.npidsFor(sp.nodes)
	if t.cfg.Partitioning != partition.Locality {
		return sp
	}
	// Locality: partition each sid's projection of the collapsed graph.
	iv := temporal.NewInterval(events[0].Time, events[len(events)-1].Time+1)
	collapsed := partition.Collapse(start, events, iv)
	sub := make([]*partition.WeightedGraph, ns)
	for sid := range sub {
		sub[sid] = partition.NewWeightedGraph()
	}
	for id, w := range collapsed.NodeW {
		sid := t.sidOf(id)
		sub[sid].AddNode(id, w)
	}
	for p, w := range collapsed.EdgeW {
		su, sv := t.sidOf(p.U), t.sidOf(p.V)
		if su == sv {
			sub[su].AddEdge(p.U, p.V, w)
		}
	}
	sp.assign = make([]partition.Assignment, ns)
	for sid := 0; sid < ns; sid++ {
		sp.assign[sid] = partition.LocalityAssign(sub[sid], sp.npids[sid], 2)
	}
	return sp
}

// spanStride bounds the leaf count of any span of the index: the tree id
// stride (treeDID).
func (t *TGI) spanStride() int { return t.cfg.TimespanEvents/t.cfg.EventlistSize + 2 }

// spanWriter indexes raw events into one timespan, one at a time, over a
// working graph that holds the state after the last of them. writeSpan
// opens it fresh over a span's start state; Append resumes it over the
// stored trailing span (resumeSpan), from the state at the span's end,
// and then it rewrites only the rows the new events reach: the
// eventlists they land in, the leaves they cut, the tree deltas covering
// those leaves and their children, and their nodes' version chains.
type spanWriter struct {
	t  *TGI
	tm *TimespanMeta // the span's metadata, kept up to date as events land
	w  *graph.Graph
	sp *spanPartitioning

	// el is the eventlist being written, filled its raw events so far.
	// Its micro-eventlists hold, per sid and pid, the events routed there
	// by this writer, after the stored ones when el is the resumed open
	// eventlist (stored).
	el, filled      int
	lists, auxLists []map[int][]graph.Event
	// frontiers[sid] is sid's frontier membership at el's start leaf, for
	// aux eventlist replication (Replicate1Hop only).
	frontiers []map[graph.NodeID]map[int]struct{}
	// changed lists the nodes touched since the last leaf cut.
	changed []graph.NodeID
	// vcs holds the version chains of the nodes this writer touched,
	// stored entries first.
	vcs map[graph.NodeID][]vcEntry
	// leaves[sid] holds the leaves this writer cut, from leaf first on;
	// the first is taken whole from w, each later one is the one before
	// with the changed nodes replaced. Leaves share w's states, frozen.
	first  int
	leaves [][]*delta.Delta
	// stored is the stored span a resumed writer extends (nil fresh).
	stored *storedSpan
}

// writeSpan indexes one timespan of raw events given the graph state at
// its start and returns the state at its end (the carry for the next
// span). It takes ownership of w.
func (t *TGI) writeSpan(tsid int, w *graph.Graph, events []graph.Event) (*graph.Graph, error) {
	sp := t.computeSpanPartitioning(w, events)
	ns := t.cfg.HorizontalPartitions
	sw := &spanWriter{t: t, w: w, sp: sp, vcs: make(map[graph.NodeID][]vcEntry), leaves: make([][]*delta.Delta, ns),
		tm: &TimespanMeta{TSID: tsid, Start: events[0].Time, LeafTimes: []temporal.Time{events[0].Time - 1},
			Partitioning: t.cfg.Partitioning.String(), Arity: t.cfg.Arity}}
	// Persist the locality pid maps (Micropartitions table).
	if sp.assign != nil {
		var tmp [binary.MaxVarintLen64]byte
		for sid := 0; sid < ns; sid++ {
			for id, pid := range sp.assign[sid] {
				n := binary.PutVarint(tmp[:], int64(pid))
				t.store.Put(TableMicroPart, placementKey(tsid, sid), nodeCKey(id), tmp[:n])
			}
		}
	}
	// Leaf 0 is the state just before the span's first event.
	sw.cutLeaf()
	return sw.write(events)
}

// write indexes the events and finishes the span: the partial last
// eventlist, the tree, the version chains and the metadata. It returns
// the state at the span's end.
func (sw *spanWriter) write(events []graph.Event) (*graph.Graph, error) {
	for _, e := range events {
		if err := sw.add(e); err != nil {
			return nil, err
		}
	}
	if sw.filled > 0 {
		if err := sw.closeEventlist(); err != nil {
			return nil, err
		}
	}
	if err := sw.writeTree(); err != nil {
		return nil, err
	}
	t, tm := sw.t, sw.tm
	for id, entries := range sw.vcs {
		t.store.Put(TableVersions, placementKey(tm.TSID, t.sidOf(id)), nodeCKey(id), encodeVC(entries))
	}
	tm.NPids, tm.Nodes = sw.sp.npids, sw.sp.nodes
	if err := t.storeTimespanMeta(tm); err != nil {
		return nil, err
	}
	return sw.w, nil
}

// add indexes one raw event into the current eventlist.
func (sw *spanWriter) add(orig graph.Event) error {
	t := sw.t
	// RemoveNode implicitly rewrites every neighbor's state (incident
	// edges vanish); expand it into explicit RemoveEdge events so
	// neighbors' eventlists and version chains record the change — which
	// also makes the touched set complete.
	for _, e := range graph.ExpandRemoveNode(sw.w, orig) {
		touched := [2]graph.NodeID{e.Node, e.Other}
		nt := 1
		if e.Kind.IsEdge() && e.Other != e.Node {
			nt = 2
		}
		var sids, pids [2]int
		for i, id := range touched[:nt] {
			sids[i] = t.sidOf(id)
			pids[i] = sw.sp.pidOf(sids[i], id)
			if i == 0 || sids[1] != sids[0] || pids[1] != pids[0] {
				sw.route(TableEvents, sw.lists, sids[i], pids[i], e)
			}
			sw.touch(id, e.Time)
		}
		// Replicate into the aux eventlist of every micro-partition
		// fronted by a touched node — even when the event also lands in
		// that partition's main eventlist, because the two replay onto
		// different graphs (partition vs frontier states).
		for sid, fm := range sw.frontiers {
			first := fm[touched[0]]
			for pid := range first {
				sw.route(TableAuxEvents, sw.auxLists, sid, pid, e)
			}
			if nt == 2 {
				for pid := range fm[touched[1]] {
					if _, dup := first[pid]; !dup {
						sw.route(TableAuxEvents, sw.auxLists, sid, pid, e)
					}
				}
			}
		}
		if err := sw.w.Apply(e); err != nil {
			return fmt.Errorf("core: index timespan %d: %w", sw.tm.TSID, err)
		}
	}
	sw.tm.EventCount++
	sw.tm.End = orig.Time
	if sw.filled++; sw.filled == t.cfg.EventlistSize {
		return sw.closeEventlist()
	}
	return nil
}

// route appends e to micro-eventlist (sid, pid) of the current
// eventlist, behind its stored events when the eventlist is the resumed
// open one.
func (sw *spanWriter) route(table string, lists []map[int][]graph.Event, sid, pid int, e graph.Event) {
	if lists[sid] == nil {
		lists[sid] = make(map[int][]graph.Event)
	}
	l, ok := lists[sid][pid]
	if !ok && sw.stored != nil && sw.el == sw.stored.openEl {
		l = sw.stored.events(table, sid, pid)
	}
	lists[sid][pid] = append(l, e)
}

// touch records a change of node id at time tt in its version chain.
func (sw *spanWriter) touch(id graph.NodeID, tt temporal.Time) {
	entries, ok := sw.vcs[id]
	if !ok && sw.stored != nil {
		entries = sw.stored.chains[id]
	}
	if len(entries) == 0 || entries[len(entries)-1].el != sw.el {
		entries = append(entries, vcEntry{el: sw.el})
		// A node the resumed open eventlist touched before is left out
		// of changed, which the whole first cut does not read.
		sw.changed = append(sw.changed, id)
	}
	last := &entries[len(entries)-1]
	if n := len(last.times); n == 0 || last.times[n-1] != tt {
		last.times = append(last.times, tt)
	}
	sw.vcs[id] = entries
}

// closeEventlist persists the current eventlist's micro-eventlists, cuts
// the leaf at its end and opens the next eventlist.
func (sw *spanWriter) closeEventlist() error {
	t, tm := sw.t, sw.tm
	for sid := range sw.lists {
		pkey := placementKey(tm.TSID, sid)
		if err := t.storeEventlists(TableEvents, pkey, sw.el, sw.lists[sid]); err != nil {
			return err
		}
		if err := t.storeEventlists(TableAuxEvents, pkey, sw.el, sw.auxLists[sid]); err != nil {
			return err
		}
	}
	tm.LeafTimes = append(tm.LeafTimes, tm.End)
	sw.el++
	tm.EventlistCount = sw.el
	sw.filled = 0
	sw.cutLeaf()
	return nil
}

// cutLeaf cuts leaf el (the state after eventlist el-1, or the span's
// start for leaf 0) per horizontal partition, and with Replicate1Hop
// persists its aux rows and takes the frontiers for eventlist el.
func (sw *spanWriter) cutLeaf() {
	t := sw.t
	ns := t.cfg.HorizontalPartitions
	if len(sw.leaves[0]) == 0 {
		sw.first = sw.el
		for sid := range sw.leaves {
			sw.leaves[sid] = []*delta.Delta{delta.New()}
		}
		sw.w.Range(func(n *graph.NodeState) bool {
			n.Freeze()
			sw.leaves[t.sidOf(n.ID)][0].Nodes[n.ID] = n
			return true
		})
	} else {
		next := make([]*delta.Delta, ns)
		for _, id := range sw.changed {
			sid := t.sidOf(id)
			d := next[sid]
			if d == nil {
				prev := sw.leaves[sid][len(sw.leaves[sid])-1]
				d = &delta.Delta{Nodes: maps.Clone(prev.Nodes)}
				next[sid] = d
			}
			if n := sw.w.Node(id); n != nil {
				n.Freeze()
				d.Nodes[id] = n
			} else {
				delete(d.Nodes, id)
			}
		}
		for sid, d := range next {
			if d == nil {
				d = sw.leaves[sid][len(sw.leaves[sid])-1] // untouched: the same leaf again
			}
			sw.leaves[sid] = append(sw.leaves[sid], d)
		}
	}
	sw.changed = sw.changed[:0]
	sw.lists, sw.auxLists = make([]map[int][]graph.Event, ns), make([]map[int][]graph.Event, ns)
	if t.cfg.Replicate1Hop {
		sw.frontiers = make([]map[graph.NodeID]map[int]struct{}, ns)
		for sid := range sw.frontiers {
			var written map[int]bool
			sw.frontiers[sid], written = t.storeAuxLeaf(sw.tm.TSID, sid, sw.el, sw.w, sw.sp)
			if sw.stored != nil {
				sw.stored.deleteStale(TableAux, sid, sw.el, written)
			}
		}
	}
}

// writeTree persists the tree deltas covering the leaves this writer cut
// and their children, per horizontal partition (all trees share one
// shape), deleting any stored row of theirs a rewrite leaves empty.
func (sw *spanWriter) writeTree() error {
	t, tm := sw.t, sw.tm
	root := shapeTree(tm.EventlistCount+1, tm.Arity, t.spanStride())
	for sid, leaves := range sw.leaves {
		rows, err := treeDeltas(root, sw.first,
			func(i int) *delta.Delta { return leaves[i-sw.first] },
			func(n *treeNode) (*delta.Delta, error) { return sw.stored.content(sid, n.did) })
		if err != nil {
			return err
		}
		for _, r := range rows {
			written, err := t.storeMicroDeltas(TableDeltas, placementKey(tm.TSID, sid), r.did, r.data, sid, sw.sp)
			if err != nil {
				return err
			}
			if sw.stored != nil {
				sw.stored.deleteStale(TableDeltas, sid, r.did, written)
			}
		}
	}
	tm.LeafPaths = leafPaths(root)
	return nil
}

// storeEventlists persists eventlist el's micro-eventlists, one per pid.
func (t *TGI) storeEventlists(table, pkey string, el int, lists map[int][]graph.Event) error {
	for pid, evs := range lists {
		blob, err := t.cdc.EncodeEvents(evs)
		if err != nil {
			return err
		}
		t.store.Put(table, pkey, eventCKey(el, pid), blob)
	}
	return nil
}

// storeMicroDeltas splits a tree delta by micro-partition, persists each
// non-empty piece under the composite delta key and returns their pids.
func (t *TGI) storeMicroDeltas(table, pkey string, did int, d *delta.Delta, sid int, sp *spanPartitioning) (map[int]bool, error) {
	parts := make(map[int]*delta.Delta)
	for id, ns := range d.Nodes {
		pid := sp.pidOf(sid, id)
		p, ok := parts[pid]
		if !ok {
			p = delta.New()
			parts[pid] = p
		}
		p.Nodes[id] = ns
	}
	for id := range d.Tombstones {
		pid := sp.pidOf(sid, id)
		p, ok := parts[pid]
		if !ok {
			p = delta.New()
			parts[pid] = p
		}
		p.MarkDeleted(id)
	}
	written := make(map[int]bool, len(parts))
	for pid, p := range parts {
		blob, err := t.cdc.EncodeDelta(p)
		if err != nil {
			return nil, err
		}
		t.store.Put(table, pkey, deltaCKey(did, pid), blob)
		written[pid] = true
	}
	return written, nil
}

// frontierMembership maps every node to the set of micro-partitions of
// horizontal partition sid whose frontier it belongs to: the node is
// adjacent to a member of (sid,pid) but is not itself in (sid,pid).
func (t *TGI) frontierMembership(w *graph.Graph, sid int, sp *spanPartitioning) map[graph.NodeID]map[int]struct{} {
	out := make(map[graph.NodeID]map[int]struct{})
	w.Range(func(ns *graph.NodeState) bool {
		if t.sidOf(ns.ID) != sid {
			return true
		}
		pid := sp.pidOf(sid, ns.ID)
		for k := range ns.Edges {
			nb := k.Other
			if t.sidOf(nb) == sid && sp.pidOf(sid, nb) == pid {
				continue // same micro-partition
			}
			set, ok := out[nb]
			if !ok {
				set = make(map[int]struct{})
				out[nb] = set
			}
			set[pid] = struct{}{}
		}
		return true
	})
	return out
}

// storeAuxLeaf persists, for every micro-partition of (tsid, sid), the
// auxiliary micro-delta holding its frontier nodes' states at this leaf
// (paper §4.5, Figure 5d). Frontier states carry only the edges whose
// other endpoint lies inside the partition∪frontier closure: any 1-hop
// query rooted in the partition only needs edges among {root}∪N(root) ⊆
// members∪frontier, and the restriction keeps replication from copying
// high-degree frontier nodes' entire adjacency into every aux row. It
// returns the frontier membership it computed and the pids it wrote; the
// rows alias w's attribute and edge states, which is safe because they
// are encoded before w changes.
func (t *TGI) storeAuxLeaf(tsid, sid, leafIdx int, w *graph.Graph, sp *spanPartitioning) (map[graph.NodeID]map[int]struct{}, map[int]bool) {
	fm := t.frontierMembership(w, sid, sp)
	// closures[pid] = member set ∪ frontier set of that micro-partition.
	closures := make(map[int]map[graph.NodeID]struct{})
	closure := func(pid int) map[graph.NodeID]struct{} {
		set, ok := closures[pid]
		if !ok {
			set = make(map[graph.NodeID]struct{})
			closures[pid] = set
		}
		return set
	}
	w.Range(func(ns *graph.NodeState) bool {
		if t.sidOf(ns.ID) == sid {
			closure(sp.pidOf(sid, ns.ID))[ns.ID] = struct{}{}
		}
		return true
	})
	for nb, pids := range fm {
		for pid := range pids {
			closure(pid)[nb] = struct{}{}
		}
	}

	parts := make(map[int]*delta.Delta)
	for nb, pids := range fm {
		ns := w.Node(nb)
		if ns == nil {
			continue
		}
		for pid := range pids {
			p, ok := parts[pid]
			if !ok {
				p = delta.New()
				parts[pid] = p
			}
			set := closures[pid]
			restricted := &graph.NodeState{ID: ns.ID, Attrs: ns.Attrs}
			for k, es := range ns.Edges {
				if _, in := set[k.Other]; in {
					if restricted.Edges == nil {
						restricted.Edges = make(map[graph.EdgeKey]*graph.EdgeState)
					}
					restricted.Edges[k] = es
				}
			}
			p.Nodes[nb] = restricted
		}
	}
	written := make(map[int]bool, len(parts))
	for pid, d := range parts {
		blob, err := t.cdc.EncodeDelta(d)
		if err != nil {
			continue // encoding cannot fail for in-memory states
		}
		t.store.Put(TableAux, placementKey(tsid, sid), deltaCKey(leafIdx, pid), blob)
		written[pid] = true
	}
	return fm, written
}
