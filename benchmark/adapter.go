package main

// adapter.go is the only file on the workload path that calls into hgs
// and hgs/internal/*: opening a store, loading and appending events, the
// seven query calls, TAF jobs, Stats, the HTTP server, and the decoding of
// HTTP bodies back into the same answer shapes the library returns. The
// probe_<layer>.go files are the only other importers of hgs packages, one
// per layer, so an API change breaks one obvious file.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"hgs"
	"hgs/internal/codec"
	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/server"
	"hgs/internal/workload"
)

// Model types, aliased so the rest of the benchmark never names hgs.
type (
	Time      = hgs.Time
	NodeID    = hgs.NodeID
	Event     = hgs.Event
	Graph     = hgs.Graph
	NodeState = hgs.NodeState
)

// genEvents makes the wikiN-churn dataset: a preferential-attachment
// growth history of n nodes followed by half as many random edge
// additions and deletions (30% deletions).
func genEvents(n int, seed int64) []Event {
	base := workload.Wikipedia(workload.WikiConfig{Nodes: n, EdgesPerNode: 4, Seed: seed})
	return workload.Augment(base, workload.AugmentConfig{Extra: len(base) / 2, DeleteFraction: 0.3, Seed: seed + 1})
}

// isAddNode and touches let dataset.go and oracle.go index events without
// importing the event model.
func isAddNode(e Event) bool          { return e.Kind == hgs.AddNode }
func touches(e Event, id NodeID) bool { return e.Touches(id) }
func newGraph() *Graph                { return graph.New() }

// storeConfig is what a workload varies; everything else is the common
// setting (3 machines, replication 2, latency simulation off, defaults).
type storeConfig struct {
	engine         string // "memory", "disk" or "tiered"
	dataDir        string
	cacheBytes     int64 // 0 = the 64 MiB default
	timespanEvents int
	eventlistSize  int
}

type store struct {
	s *hgs.Store
}

func (c storeConfig) options() hgs.Options {
	return hgs.Options{
		Machines: 3, Replication: 2,
		TimespanEvents: c.timespanEvents, EventlistSize: c.eventlistSize,
		SimulateLatency: false,
		Engine:          hgs.StorageEngine(c.engine), DataDir: c.dataDir,
		CacheBytes: c.cacheBytes,
	}
}

func openStore(c storeConfig) (*store, error) {
	s, err := hgs.Open(c.options())
	if err != nil {
		return nil, err
	}
	return &store{s: s}, nil
}

// reopenStore opens a durable store from its directory alone.
func reopenStore(dir string) (*store, error) {
	s, err := hgs.Open(hgs.Options{DataDir: dir})
	if err != nil {
		return nil, err
	}
	return &store{s: s}, nil
}

func (st *store) load(events []Event) error   { return st.s.Load(events) }
func (st *store) append(events []Event) error { return st.s.Append(events) }
func (st *store) close() error                { return st.s.Close() }
func (st *store) timeRange() (Time, Time, error) {
	return st.s.TimeRange()
}

// planCounts sums the per-call plan traces of a traced run.
type planCounts struct {
	calls       int64
	plannedKeys int64 // groups + parts + gets + scans after deduplication
	cacheHits   int64
	negHits     int64
	kvReads     int64
	roundTrips  int64
	bytesRead   int64
}

// fetchOpts returns the options for one call and a function that folds
// the call's trace into pc; both are nil-safe when pc is nil (untraced).
func fetchOpts(pc *planCounts) (*hgs.FetchOptions, func()) {
	if pc == nil {
		return nil, func() {}
	}
	tr := &hgs.Trace{}
	return &hgs.FetchOptions{Trace: tr}, func() {
		r := tr.Record()
		pc.calls++
		pc.plannedKeys += int64(r.Groups + r.Parts + r.Gets + r.Scans)
		pc.cacheHits += r.CacheHits
		pc.negHits += r.NegativeHits
		pc.kvReads += r.KVReads
		pc.roundTrips += r.RoundTrips
		pc.bytesRead += r.BytesRead
	}
}

func (st *store) snapshot(t Time, pc *planCounts) (*Graph, error) {
	o, done := fetchOpts(pc)
	defer done()
	return st.s.SnapshotWith(t, o)
}

func (st *store) node(id NodeID, t Time, pc *planCounts) (*NodeState, error) {
	o, done := fetchOpts(pc)
	defer done()
	return st.s.NodeWith(id, t, o)
}

func (st *store) history(id NodeID, ts, te Time, pc *planCounts) (*NodeState, []Event, error) {
	o, done := fetchOpts(pc)
	defer done()
	h, err := st.s.NodeHistoryWith(id, ts, te, o)
	if err != nil {
		return nil, nil, err
	}
	return h.Initial, h.Events, nil
}

func (st *store) changeTimes(id NodeID, ts, te Time, pc *planCounts) ([]Time, error) {
	o, done := fetchOpts(pc)
	defer done()
	return st.s.ChangeTimesWith(id, ts, te, o)
}

func (st *store) khop(id NodeID, k int, t Time, pc *planCounts) ([]NodeID, error) {
	o, done := fetchOpts(pc)
	defer done()
	g, err := st.s.KHopWith(id, k, t, o)
	if err != nil {
		return nil, err
	}
	return g.NodeIDs(), nil
}

// isNotFound reports the store's typed "no such node at that time".
func isNotFound(err error) bool { return errors.Is(err, hgs.ErrNodeNotFound) }

// counters is the flat view of Store.Stats and codec.PoolStats the
// per-layer counts are differenced from.
type counters struct {
	Events      int
	StoredBytes int64

	Reads, Writes, BytesRead, BytesWritten, RoundTrips int64
	DegradedReads, HintedWrites, ReadRepairs           int64
	TierHot, TierCold, FlushedBytes, Compactions       int64

	CacheHits, CacheMisses, CacheNeg              int64
	CacheEvictions, CacheAdmissions, CacheRejects int64
	PoolHits, PoolMisses                          int64
}

func (st *store) counters() (counters, error) {
	s, err := st.s.Stats()
	if err != nil {
		return counters{}, err
	}
	m, c := s.StoreMetrics, s.Cache
	ph, pm := codec.PoolStats()
	return counters{
		Events: s.Events, StoredBytes: s.StoredBytes,
		Reads: m.Reads, Writes: m.Writes, BytesRead: m.BytesRead, BytesWritten: m.BytesWritten,
		RoundTrips: m.RoundTrips, DegradedReads: m.DegradedReads, HintedWrites: m.HintedWrites,
		ReadRepairs: m.ReadRepairs, TierHot: m.TierHotReads, TierCold: m.TierColdReads,
		FlushedBytes: m.FlushedBytes, Compactions: m.Compactions,
		CacheHits: c.Hits, CacheMisses: c.Misses, CacheNeg: c.NegativeHits,
		CacheEvictions: c.Evictions, CacheAdmissions: c.Admissions, CacheRejects: c.AdmissionRejects,
		PoolHits: ph, PoolMisses: pm,
	}, nil
}

// sub returns the counts accumulated since b; the two gauges (Events,
// StoredBytes) keep the later value.
func (a counters) sub(b counters) counters {
	return counters{
		Events: a.Events, StoredBytes: a.StoredBytes,
		Reads: a.Reads - b.Reads, Writes: a.Writes - b.Writes,
		BytesRead: a.BytesRead - b.BytesRead, BytesWritten: a.BytesWritten - b.BytesWritten,
		RoundTrips: a.RoundTrips - b.RoundTrips, DegradedReads: a.DegradedReads - b.DegradedReads,
		HintedWrites: a.HintedWrites - b.HintedWrites, ReadRepairs: a.ReadRepairs - b.ReadRepairs,
		TierHot: a.TierHot - b.TierHot, TierCold: a.TierCold - b.TierCold,
		FlushedBytes: a.FlushedBytes - b.FlushedBytes, Compactions: a.Compactions - b.Compactions,
		CacheHits: a.CacheHits - b.CacheHits, CacheMisses: a.CacheMisses - b.CacheMisses,
		CacheNeg: a.CacheNeg - b.CacheNeg, CacheEvictions: a.CacheEvictions - b.CacheEvictions,
		CacheAdmissions: a.CacheAdmissions - b.CacheAdmissions, CacheRejects: a.CacheRejects - b.CacheRejects,
		PoolHits: a.PoolHits - b.PoolHits, PoolMisses: a.PoolMisses - b.PoolMisses,
	}
}

// cluster hands the probes the store's key-value cluster.
func (st *store) cluster() *kvstore.Cluster { return st.s.Cluster() }

// --- TAF ------------------------------------------------------------------

// tafJob is one temporal-analytics job split into its three public calls
// so fetch and compute are timed separately from outside.
type tafJob struct {
	son *hgs.SoN
}

func (st *store) tafFetch(start, end Time) (*tafJob, int, error) {
	son, err := st.s.Analytics(2).SON().Timeslice(hgs.NewInterval(start, end)).Fetch()
	if err != nil {
		return nil, 0, err
	}
	return &tafJob{son: son}, son.Count(), nil
}

const tafPoints = 8

// evolution samples graph density at tafPoints even timepoints.
func (j *tafJob) evolution() (times []Time, density []float64) {
	for _, p := range hgs.Evolution(j.son, hgs.GraphDensity, tafPoints, nil) {
		times = append(times, p.Time)
		density = append(density, p.Value)
	}
	return times, density
}

// compute counts every node's change points and returns their sum.
func (j *tafJob) compute() int {
	sum := 0
	for _, n := range hgs.NodeCompute(j.son, func(nt *hgs.NodeT) int { return len(nt.ChangePoints()) }) {
		sum += n
	}
	return sum
}

// --- HTTP -----------------------------------------------------------------

type httpServer struct {
	srv     *server.Server
	addr    string
	handler http.Handler
}

func (st *store) serve(maxInFlight int) (*httpServer, error) {
	srv := server.New(st.s, server.Config{MaxInFlight: maxInFlight})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &httpServer{srv: srv, addr: addr, handler: srv.Handler()}, nil
}

func (h *httpServer) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return h.srv.Shutdown(ctx)
}

// opURL is the request path of a read op on the server's /v1 surface.
func opURL(o op) string {
	switch o.kind {
	case kindSnapshot:
		return fmt.Sprintf("/v1/snapshot?t=%d", o.t)
	case kindNode:
		return fmt.Sprintf("/v1/node?id=%d&t=%d", o.id, o.t)
	case kindHistory:
		return fmt.Sprintf("/v1/node/history?id=%d&ts=%d&te=%d", o.id, o.t, o.te)
	case kindChangeTimes:
		return fmt.Sprintf("/v1/node/changetimes?id=%d&ts=%d&te=%d", o.id, o.t, o.te)
	case kindKHop1, kindKHop2:
		return fmt.Sprintf("/v1/khop?id=%d&k=%d&t=%d", o.id, o.k(), o.t)
	}
	panic("benchmark: op has no URL: " + o.kind.String())
}

func nodeFromJSON(n server.NodeJSON) *NodeState {
	ns := graph.NewNodeState(n.ID)
	ns.Attrs = n.Attrs
	for _, e := range n.Edges {
		if ns.Edges == nil {
			ns.Edges = make(map[graph.EdgeKey]*graph.EdgeState)
		}
		ns.Edges[graph.EdgeKey{Other: e.Other, Out: e.Out}] = &graph.EdgeState{Attrs: e.Attrs}
	}
	return ns
}

var kindByName = map[string]hgs.EventKind{
	"add-node": hgs.AddNode, "remove-node": hgs.RemoveNode,
	"add-edge": hgs.AddEdge, "remove-edge": hgs.RemoveEdge,
	"set-node-attr": hgs.SetNodeAttr, "del-node-attr": hgs.DelNodeAttr,
	"set-edge-attr": hgs.SetEdgeAttr, "del-edge-attr": hgs.DelEdgeAttr,
}

// decodeBody turns a 200 body of op o into the answer the library call
// would have returned, so one oracle checks both paths.
func decodeBody(o op, body []byte) (answer, error) {
	a := answer{op: o}
	switch o.kind {
	case kindSnapshot:
		g := graph.New()
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 1<<20), 64<<20)
		for sc.Scan() {
			var row server.NodeJSON
			if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
				return a, fmt.Errorf("snapshot row: %w", err)
			}
			g.PutNode(nodeFromJSON(row))
		}
		if err := sc.Err(); err != nil {
			return a, err
		}
		a.graph = g
	case kindNode:
		var row server.NodeJSON
		if err := json.Unmarshal(body, &row); err != nil {
			return a, err
		}
		a.node = nodeFromJSON(row)
	case kindHistory:
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 1<<20), 64<<20)
		if !sc.Scan() {
			return a, errors.New("history: empty body")
		}
		var head struct {
			Initial *server.NodeJSON `json:"initial"`
			Events  int              `json:"events"`
		}
		if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
			return a, err
		}
		if head.Initial != nil {
			a.node = nodeFromJSON(*head.Initial)
		}
		for sc.Scan() {
			var e server.EventJSON
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				return a, err
			}
			k, ok := kindByName[e.Kind]
			if !ok {
				return a, fmt.Errorf("history: unknown event kind %q", e.Kind)
			}
			a.events = append(a.events, Event{Time: e.Time, Kind: k, Node: e.Node, Other: e.Other, Key: e.Key, Value: e.Value})
		}
		if len(a.events) != head.Events {
			return a, fmt.Errorf("history: header says %d events, body has %d", head.Events, len(a.events))
		}
	case kindChangeTimes:
		if err := json.Unmarshal(body, &a.times); err != nil {
			return a, err
		}
	case kindKHop1, kindKHop2:
		var rows []server.NodeJSON
		if err := json.Unmarshal(body, &rows); err != nil {
			return a, err
		}
		for _, r := range rows {
			a.members = append(a.members, r.ID)
		}
		sort.Slice(a.members, func(i, j int) bool { return a.members[i] < a.members[j] })
	default:
		return a, fmt.Errorf("no HTTP decoding for %s", o.kind)
	}
	return a, nil
}

// --- canonical comparison -------------------------------------------------

// encodeState is the canonical byte form of a node state (sorted attrs and
// edges); nil encodes as empty.
func encodeState(ns *NodeState) []byte {
	if ns == nil {
		return nil
	}
	b, err := codec.Codec{}.EncodeNodeState(ns)
	if err != nil {
		panic(err) // the plain codec cannot fail on an in-memory state
	}
	return b
}

func statesEqual(a, b *NodeState) bool { return bytes.Equal(encodeState(a), encodeState(b)) }

// digestGraph hashes the canonical encoding of every node in id order.
func digestGraph(g *Graph) string {
	h := sha256.New()
	for _, id := range g.NodeIDs() {
		h.Write(encodeState(g.Node(id)))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
