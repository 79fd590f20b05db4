// Package server is the HTTP/JSON front end over an hgs.Store: every
// query method of the store has an endpoint, large snapshot and history
// responses stream as NDJSON (rows flushed as materialization
// partitions complete), and the request path composes
//
//	limiter -> context deadline -> fetch plan -> streamed response
//
// An in-flight limiter sheds overload with 429 before any work starts;
// admitted requests run under a context carrying the per-request
// deadline (the ?timeout= query parameter, clamped to Config.MaxTimeout)
// and the client's cancellation signal, which the store threads through
// its fetch layer into the simulated cluster. Typed store errors map to
// HTTP statuses:
//
//	hgs.ErrNotLoaded         409 Conflict
//	hgs.ErrNodeNotFound      404 Not Found
//	hgs.ErrOutOfRange        416 Requested Range Not Satisfiable
//	hgs.ErrClosed            503 Service Unavailable
//	context.DeadlineExceeded 504 Gateway Timeout
//	context.Canceled         499 (client closed request)
//
// Node-shaped bodies (snapshot rows, /v1/node, the /v1/khop array, the
// initial states of both history endpoints) come from one append
// encoder, appendNode, with no reflection: it writes the bytes
// encoding/json would write for NodeJSON, in the row order NodeJSON
// documents. A snapshot encodes its partitions one at a time into one
// buffer per request, written out whenever it passes snapshotWriteBytes
// and at each partition's end, so the server never holds a whole
// snapshot.
//
// The store's observability endpoints (/metrics, /debug/pprof/*,
// /traces) mount into the same mux, so one port serves queries and
// telemetry alike. cmd/hgs-server is the binary; the benchmark's
// serve_http workload (benchmark/) drives a spawned instance under load.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"hgs"
	"hgs/internal/graph"
	"hgs/internal/obs"
)

// Config tunes a Server. The zero value serves with sensible limits.
type Config struct {
	// MaxInFlight bounds concurrently executing requests; excess
	// requests are shed immediately with 429 (default 64).
	MaxInFlight int
	// DefaultTimeout is the per-request deadline when the client sends
	// no ?timeout= parameter (default 5s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (default 60s).
	MaxTimeout time.Duration
	// AnalyticsWorkers sizes the TAF compute pool behind the analytics
	// endpoints (default 4).
	AnalyticsWorkers int
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.AnalyticsWorkers <= 0 {
		c.AnalyticsWorkers = 4
	}
	return c
}

// StatusClientClosedRequest is the nonstandard status (nginx's 499)
// reported when the client cancelled mid-request.
const StatusClientClosedRequest = 499

// Server serves one Store over HTTP.
type Server struct {
	store *hgs.Store
	cfg   Config
	sem   chan struct{}
	mux   *http.ServeMux

	shed         *obs.Counter
	deadlineMiss *obs.Counter
	inflight     *obs.Gauge

	srvMu sync.Mutex
	ln    net.Listener
	srv   *http.Server
}

// New builds a server over store. Its request metrics register into the
// store's registry, so /metrics reports the serve layer next to the
// store's own counters.
func New(store *hgs.Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := store.Registry()
	s := &Server{
		store: store,
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.MaxInFlight),
		shed: reg.Counter("hgs_server_shed_total",
			"Requests rejected with 429 by the in-flight limiter."),
		deadlineMiss: reg.Counter("hgs_server_deadline_miss_total",
			"Requests that exceeded their deadline (504)."),
		inflight: reg.Gauge("hgs_server_inflight",
			"Requests currently executing."),
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/stats", s.route("stats", s.handleStats))
	mux.Handle("/v1/timerange", s.route("timerange", s.handleTimeRange))
	mux.Handle("/v1/snapshot", s.route("snapshot", s.handleSnapshot))
	mux.Handle("/v1/node", s.route("node", s.handleNode))
	mux.Handle("/v1/node/history", s.route("node-history", s.handleNodeHistory))
	mux.Handle("/v1/node/changetimes", s.route("change-times", s.handleChangeTimes))
	mux.Handle("/v1/khop", s.route("khop", s.handleKHop))
	mux.Handle("/v1/khop/history", s.route("khop-history", s.handleKHopHistory))
	mux.Handle("/v1/append", s.route("append", s.handleAppend))
	mux.Handle("/v1/analytics/top-changers", s.route("top-changers", s.handleTopChangers))
	// Topology administration: inspect placement, change membership,
	// inject replica failures. Mutating endpoints are POST-only and map
	// topology sentinels like the query endpoints map store sentinels
	// (unknown node 404, duplicate/rebalancing/too-few-nodes 409).
	mux.Handle("/admin/topology", s.route("topology", s.handleTopology))
	mux.Handle("/admin/node/add", s.route("node-add", s.nodeOp(s.store.AddStorageNode)))
	mux.Handle("/admin/node/remove", s.route("node-remove", s.nodeOp(s.store.RemoveStorageNode)))
	mux.Handle("/admin/node/fail", s.route("node-fail", s.nodeOp(s.store.FailStorageNode)))
	mux.Handle("/admin/node/revive", s.route("node-revive", s.nodeOp(s.store.ReviveStorageNode)))
	mux.Handle("/admin/rebalance/wait", s.route("rebalance-wait", s.handleRebalanceWait))
	mux.Handle("/admin/repair", s.route("repair", s.handleRepair))
	// Telemetry rides the same port: the store's debug handler already
	// serves /metrics, /traces and /debug/pprof/*.
	dh := store.DebugHandler()
	mux.Handle("/metrics", dh)
	mux.Handle("/traces", dh)
	mux.Handle("/debug/pprof/", dh)
	s.mux = mux
	return s
}

// Handler returns the server's routed handler for embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (":0" for an ephemeral port) and serves in the
// background until Shutdown. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	s.srvMu.Lock()
	defer s.srvMu.Unlock()
	if s.ln != nil {
		return "", fmt.Errorf("server: already started on %s", s.ln.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	s.ln, s.srv = ln, srv
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown stops the listener and drains in-flight requests until ctx
// expires. The store is not closed; that remains the caller's.
func (s *Server) Shutdown(ctx context.Context) error {
	s.srvMu.Lock()
	srv := s.srv
	s.ln, s.srv = nil, nil
	s.srvMu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// httpError carries an explicit status for request-shape problems
// (missing parameters, bad bodies) that no store sentinel covers.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// statusOf maps an error to its HTTP status: typed store sentinels and
// context outcomes first, explicit httpErrors next, 500 otherwise.
func statusOf(err error) int {
	var he *httpError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &he):
		return he.code
	case errors.Is(err, hgs.ErrNodeNotFound):
		return http.StatusNotFound
	case errors.Is(err, hgs.ErrUnknownStorageNode):
		return http.StatusNotFound
	case errors.Is(err, hgs.ErrDuplicateStorageNode),
		errors.Is(err, hgs.ErrRebalancing),
		errors.Is(err, hgs.ErrRepairRunning),
		errors.Is(err, hgs.ErrTooFewNodes):
		return http.StatusConflict
	case errors.Is(err, hgs.ErrOutOfRange):
		return http.StatusRequestedRangeNotSatisfiable
	case errors.Is(err, hgs.ErrNotLoaded):
		return http.StatusConflict
	case errors.Is(err, hgs.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	}
	return http.StatusInternalServerError
}

// statusWriter tracks whether the handler already wrote (streaming
// responses commit their 200 before the body; a later error can only
// abort the stream, not change the status).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status, w.wrote = http.StatusOK, true
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming handlers can
// flush per partition.
func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// route wraps one endpoint with the serve pipeline: shed over
// MaxInFlight, derive the request context (client cancellation plus the
// clamped ?timeout= deadline), run the handler, map its error to a
// status, and record per-route metrics.
func (s *Server) route(name string, fn func(http.ResponseWriter, *http.Request) error) http.Handler {
	reg := s.store.Registry()
	hist := reg.Histogram("hgs_server_request_seconds",
		"Wall time of served requests by route.", nil, obs.L("route", name))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
		default:
			s.shed.Inc()
			s.count(reg, name, http.StatusTooManyRequests)
			writeJSONError(w, http.StatusTooManyRequests, "server at capacity")
			return
		}
		defer func() { <-s.sem }()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)

		timeout := s.cfg.DefaultTimeout
		if tv := r.URL.Query().Get("timeout"); tv != "" {
			d, err := time.ParseDuration(tv)
			if err != nil || d <= 0 {
				s.count(reg, name, http.StatusBadRequest)
				writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad timeout %q", tv))
				return
			}
			timeout = d
		}
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()

		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		err := fn(sw, r.WithContext(ctx))
		hist.Observe(time.Since(start).Seconds())

		code := statusOf(err)
		if err != nil && !sw.wrote {
			writeJSONError(sw, code, err.Error())
		}
		if err != nil && sw.wrote {
			code = sw.status // stream already committed its status
		}
		if statusOf(err) == http.StatusGatewayTimeout {
			s.deadlineMiss.Inc()
		}
		s.count(reg, name, code)
	})
}

func (s *Server) count(reg *obs.Registry, route string, code int) {
	reg.Counter("hgs_server_requests_total", "Served requests by route and status.",
		obs.L("route", route), obs.L("code", strconv.Itoa(code))).Inc()
}

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": msg, "code": code})
}

func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// writeJSONBytes is writeJSON for a body the append encoder built.
func writeJSONBytes(w http.ResponseWriter, body []byte) error {
	w.Header().Set("Content-Type", "application/json")
	_, err := w.Write(append(body, '\n'))
	return err
}

// --- parameter parsing --------------------------------------------------

func intParam(r *http.Request, name string) (int64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, badRequest("missing parameter %q", name)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, badRequest("bad parameter %s=%q", name, v)
	}
	return n, nil
}

func intParamDefault(r *http.Request, name string, def int64) (int64, error) {
	if r.URL.Query().Get(name) == "" {
		return def, nil
	}
	return intParam(r, name)
}

// checkRange rejects timepoints outside the indexed history with
// ErrOutOfRange. The core index clamps instead (a query below the first
// event returns the empty graph); at the HTTP boundary an explicit 416
// beats silently serving the clamped answer.
func (s *Server) checkRange(times ...hgs.Time) error {
	first, last, err := s.store.TimeRange()
	if err != nil {
		return err
	}
	for _, tt := range times {
		if tt < first || tt > last {
			return fmt.Errorf("t=%d outside indexed range [%d, %d]: %w",
				tt, first, last, hgs.ErrOutOfRange)
		}
	}
	return nil
}

// --- response shapes ----------------------------------------------------

// EdgeJSON is one incident edge of a node row. Out reports direction
// (true: the row's node is the source).
//
// A row lists its edges by Other, the out-edge before the in-edge. That
// is the reverse of graph.CompareEdgeKeys (in-edge first) on purpose,
// so that rows keep the bytes clients have always been sent; do not
// align one order with the other.
type EdgeJSON struct {
	Other hgs.NodeID `json:"other"`
	Out   bool       `json:"out"`
	Attrs hgs.Attrs  `json:"attrs,omitempty"`
}

// NodeJSON is one node state: an NDJSON row of snapshot responses and
// the body of /v1/node. It is the wire schema clients decode; the
// server writes it with appendNode, which owns the order of a row:
// attrs by key, edges by Other with the out-edge before the in-edge
// (see EdgeJSON).
type NodeJSON struct {
	ID    hgs.NodeID `json:"id"`
	Attrs hgs.Attrs  `json:"attrs,omitempty"`
	Edges []EdgeJSON `json:"edges,omitempty"`
}

// EventJSON is one change, as emitted by history endpoints and accepted
// by /v1/append.
type EventJSON struct {
	Time  hgs.Time   `json:"time"`
	Kind  string     `json:"kind"`
	Node  hgs.NodeID `json:"node"`
	Other hgs.NodeID `json:"other,omitempty"`
	Key   string     `json:"key,omitempty"`
	Value string     `json:"value,omitempty"`
}

var kindNames = map[hgs.EventKind]string{
	hgs.AddNode: "add-node", hgs.RemoveNode: "remove-node",
	hgs.AddEdge: "add-edge", hgs.RemoveEdge: "remove-edge",
	hgs.SetNodeAttr: "set-node-attr", hgs.DelNodeAttr: "del-node-attr",
	hgs.SetEdgeAttr: "set-edge-attr", hgs.DelEdgeAttr: "del-edge-attr",
}

var kindValues = func() map[string]hgs.EventKind {
	m := make(map[string]hgs.EventKind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// encodeScratch is the sort scratch appendNode reuses from row to row.
type encodeScratch struct {
	edges []EdgeJSON
	keys  []string
}

// appendNode appends the NodeJSON row of ns to dst: the bytes
// encoding/json writes for it, without a trailing newline.
func appendNode(dst []byte, ns *hgs.NodeState, sc *encodeScratch) []byte {
	dst = slices.Grow(dst, 32+32*len(ns.Edges)) // an edge takes ~30 bytes
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(ns.ID), 10)
	if len(ns.Attrs) > 0 {
		dst = append(dst, `,"attrs":`...)
		dst = appendAttrs(dst, ns.Attrs, sc)
	}
	if len(ns.Edges) == 0 {
		return append(dst, '}')
	}
	sc.edges = slices.Grow(sc.edges[:0], len(ns.Edges))
	for k, es := range ns.Edges {
		var attrs hgs.Attrs
		if es != nil {
			attrs = es.Attrs
		}
		sc.edges = append(sc.edges, EdgeJSON{Other: k.Other, Out: k.Out, Attrs: attrs})
	}
	slices.SortFunc(sc.edges, func(x, y EdgeJSON) int {
		if x.Other != y.Other || x.Out == y.Out {
			return cmp.Compare(x.Other, y.Other)
		}
		if x.Out {
			return -1
		}
		return 1
	})
	dst = append(dst, `,"edges":[`...)
	for i, e := range sc.edges {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"other":`...)
		dst = strconv.AppendInt(dst, int64(e.Other), 10)
		dst = append(dst, `,"out":`...)
		dst = strconv.AppendBool(dst, e.Out)
		if len(e.Attrs) > 0 {
			dst = append(dst, `,"attrs":`...)
			dst = appendAttrs(dst, e.Attrs, sc)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendAttrs appends a as a JSON object with its keys in sorted order,
// as encoding/json writes a map.
func appendAttrs(dst []byte, a hgs.Attrs, sc *encodeScratch) []byte {
	sc.keys = sc.keys[:0]
	for k := range a {
		sc.keys = append(sc.keys, k)
	}
	slices.Sort(sc.keys)
	dst = append(dst, '{')
	for i, k := range sc.keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, k)
		dst = append(dst, ':')
		dst = appendString(dst, a[k])
	}
	return append(dst, '}')
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json would not escape is copied as is; any other string goes
// through json.Marshal, which keeps its HTML escaping, its U+FFFD for
// invalid UTF-8 and its U+2028/U+2029 escapes.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendGraph appends g's node rows as one JSON array, in id order.
func appendGraph(dst []byte, g *hgs.Graph, sc *encodeScratch) []byte {
	dst = append(dst, '[')
	for i, id := range g.NodeIDs() {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendNode(dst, g.Node(id), sc)
	}
	return append(dst, ']')
}

func eventJSON(e hgs.Event) EventJSON {
	return EventJSON{Time: e.Time, Kind: kindNames[e.Kind], Node: e.Node,
		Other: e.Other, Key: e.Key, Value: e.Value}
}

func (e EventJSON) event() (hgs.Event, error) {
	k, ok := kindValues[e.Kind]
	if !ok {
		return hgs.Event{}, badRequest("unknown event kind %q", e.Kind)
	}
	return hgs.Event{Time: e.Time, Kind: k, Node: e.Node, Other: e.Other,
		Key: e.Key, Value: e.Value}, nil
}

// --- endpoints ----------------------------------------------------------

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	st, err := s.store.Stats()
	if err != nil {
		return err
	}
	return writeJSON(w, st)
}

func (s *Server) handleTimeRange(w http.ResponseWriter, r *http.Request) error {
	first, last, err := s.store.TimeRange()
	if err != nil {
		return err
	}
	return writeJSON(w, map[string]hgs.Time{"first": first, "last": last})
}

// snapshotWriteBytes is the buffered row bytes past which a snapshot
// stream writes to the client before its partition is done.
const snapshotWriteBytes = 32 << 10

// handleSnapshot streams the snapshot at ?t= as NDJSON, one node row
// per line, rows written (and flushed) as each horizontal partition
// finishes materializing — the response starts before the last
// partition is done and total memory stays bounded by partition size.
// Partitions encode one at a time under mu into one buffer the request
// reuses, written out whenever it passes snapshotWriteBytes and at
// each partition's end.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) error {
	tt, err := intParam(r, "t")
	if err != nil {
		return err
	}
	if err := s.checkRange(hgs.Time(tt)); err != nil {
		return err
	}
	var (
		mu      sync.Mutex
		started bool
		buf     []byte
		sc      encodeScratch
	)
	fl, _ := w.(http.Flusher)
	return s.store.StreamSnapshot(hgs.Time(tt), &hgs.FetchOptions{Context: r.Context()},
		func(sid int, states []*hgs.NodeState) error {
			mu.Lock()
			defer mu.Unlock()
			if !started {
				w.Header().Set("Content-Type", "application/x-ndjson")
				started = true
			}
			for i, ns := range states {
				buf = append(appendNode(buf, ns, &sc), '\n')
				if len(buf) >= snapshotWriteBytes || i == len(states)-1 {
					if _, err := w.Write(buf); err != nil {
						return err
					}
					buf = buf[:0]
				}
			}
			if fl != nil {
				fl.Flush()
			}
			return nil
		})
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) error {
	id, err := intParam(r, "id")
	if err != nil {
		return err
	}
	tt, err := intParam(r, "t")
	if err != nil {
		return err
	}
	if err := s.checkRange(hgs.Time(tt)); err != nil {
		return err
	}
	ns, err := s.store.NodeWith(hgs.NodeID(id), hgs.Time(tt), &hgs.FetchOptions{Context: r.Context()})
	if err != nil {
		return err
	}
	if ns == nil {
		return fmt.Errorf("node %d at t=%d: %w", id, tt, hgs.ErrNodeNotFound)
	}
	return writeJSONBytes(w, appendNode(nil, ns, &encodeScratch{}))
}

// handleNodeHistory streams a node's history over [ts, te) as NDJSON:
// first a line holding the initial state (null when absent), then one
// line per event.
func (s *Server) handleNodeHistory(w http.ResponseWriter, r *http.Request) error {
	id, err := intParam(r, "id")
	if err != nil {
		return err
	}
	ts, err := intParam(r, "ts")
	if err != nil {
		return err
	}
	te, err := intParam(r, "te")
	if err != nil {
		return err
	}
	h, err := s.store.NodeHistoryWith(hgs.NodeID(id), hgs.Time(ts), hgs.Time(te), &hgs.FetchOptions{Context: r.Context()})
	if err != nil {
		return err
	}
	if h.Initial == nil && len(h.Events) == 0 {
		return fmt.Errorf("node %d in [%d, %d): %w", id, ts, te, hgs.ErrNodeNotFound)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	initial := json.RawMessage("null")
	if h.Initial != nil {
		initial = appendNode(nil, h.Initial, &encodeScratch{})
	}
	if err := enc.Encode(map[string]any{"initial": initial, "events": len(h.Events)}); err != nil {
		return err
	}
	fl, _ := w.(http.Flusher)
	for i, e := range h.Events {
		if err := enc.Encode(eventJSON(e)); err != nil {
			return err
		}
		if fl != nil && (i+1)%1024 == 0 {
			fl.Flush()
		}
	}
	return nil
}

func (s *Server) handleChangeTimes(w http.ResponseWriter, r *http.Request) error {
	id, err := intParam(r, "id")
	if err != nil {
		return err
	}
	ts, err := intParam(r, "ts")
	if err != nil {
		return err
	}
	te, err := intParam(r, "te")
	if err != nil {
		return err
	}
	times, err := s.store.ChangeTimesWith(hgs.NodeID(id), hgs.Time(ts), hgs.Time(te), &hgs.FetchOptions{Context: r.Context()})
	if err != nil {
		return err
	}
	if times == nil {
		times = []hgs.Time{}
	}
	return writeJSON(w, times)
}

func (s *Server) handleKHop(w http.ResponseWriter, r *http.Request) error {
	id, err := intParam(r, "id")
	if err != nil {
		return err
	}
	k, err := intParamDefault(r, "k", 1)
	if err != nil {
		return err
	}
	tt, err := intParam(r, "t")
	if err != nil {
		return err
	}
	if err := s.checkRange(hgs.Time(tt)); err != nil {
		return err
	}
	g, err := s.store.KHopWith(hgs.NodeID(id), int(k), hgs.Time(tt), &hgs.FetchOptions{Context: r.Context()})
	if err != nil {
		return err
	}
	if !g.Has(hgs.NodeID(id)) {
		return fmt.Errorf("node %d at t=%d: %w", id, tt, hgs.ErrNodeNotFound)
	}
	return writeJSONBytes(w, appendGraph(nil, g, &encodeScratch{}))
}

func (s *Server) handleKHopHistory(w http.ResponseWriter, r *http.Request) error {
	id, err := intParam(r, "id")
	if err != nil {
		return err
	}
	k, err := intParamDefault(r, "k", 1)
	if err != nil {
		return err
	}
	ts, err := intParam(r, "ts")
	if err != nil {
		return err
	}
	te, err := intParam(r, "te")
	if err != nil {
		return err
	}
	sh, err := s.store.KHopHistoryWith(hgs.NodeID(id), int(k), hgs.Time(ts), hgs.Time(te), &hgs.FetchOptions{Context: r.Context()})
	if err != nil {
		return err
	}
	evs := make([]EventJSON, 0, len(sh.Events))
	for _, e := range sh.Events {
		evs = append(evs, eventJSON(e))
	}
	return writeJSON(w, map[string]any{
		"root":     sh.Root,
		"k":        sh.K,
		"interval": sh.Interval,
		"members":  sh.Members,
		"initial":  json.RawMessage(appendGraph(nil, sh.Initial, &encodeScratch{})),
		"events":   evs,
	})
}

// handleTopology reports cluster placement: per-node ring share,
// health, stored bytes and pending hints, plus under-replicated
// partition counts (hgs-inspect -topology prints the same data).
func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) error {
	info, err := s.store.Topology()
	if err != nil {
		return err
	}
	return writeJSON(w, info)
}

// nodeOp adapts one id-keyed topology operation (add/remove/fail/
// revive) into a POST endpoint.
func (s *Server) nodeOp(op func(id int) error) func(http.ResponseWriter, *http.Request) error {
	return func(w http.ResponseWriter, r *http.Request) error {
		if r.Method != http.MethodPost {
			return &httpError{code: http.StatusMethodNotAllowed, msg: "POST required"}
		}
		id, err := intParam(r, "id")
		if err != nil {
			return err
		}
		if err := op(int(id)); err != nil {
			return err
		}
		return writeJSON(w, map[string]any{"node": id, "rebalancing": s.store.Rebalancing()})
	}
}

// handleRepair runs one anti-entropy sweep (POST) and reports what it
// converged. A sweep already in progress or a streaming topology
// change maps to 409 like the other admin conflicts.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodPost {
		return &httpError{code: http.StatusMethodNotAllowed, msg: "POST required"}
	}
	stats, err := s.store.RepairPartitions()
	if err != nil {
		return err
	}
	return writeJSON(w, stats)
}

// handleRebalanceWait blocks until the in-flight topology migration
// finishes (or the request deadline expires) and reports its outcome.
func (s *Server) handleRebalanceWait(w http.ResponseWriter, r *http.Request) error {
	done := make(chan error, 1)
	go func() { done <- s.store.WaitRebalance() }()
	select {
	case err := <-done:
		if err != nil {
			return err
		}
		return writeJSON(w, map[string]any{"rebalancing": false})
	case <-r.Context().Done():
		return r.Context().Err()
	}
}

// maxAppendBody caps a /v1/append request body (a few hundred thousand
// events): the whole batch is decoded into memory before any of it is
// ingested, so an unbounded body is an unbounded allocation.
const maxAppendBody = 16 << 20

// handleAppend ingests new events: POST {"events": [...]}. The request
// context bounds admission only — a started ingest runs to completion.
// A body over maxAppendBody is refused with 413 before anything is
// appended.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodPost {
		return &httpError{code: http.StatusMethodNotAllowed, msg: "POST required"}
	}
	var body struct {
		Events []EventJSON `json:"events"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAppendBody)).Decode(&body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &httpError{code: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("body exceeds %d bytes; split the batch", maxAppendBody)}
		}
		return badRequest("bad body: %v", err)
	}
	if len(body.Events) == 0 {
		return badRequest("no events")
	}
	events := make([]hgs.Event, 0, len(body.Events))
	for _, ej := range body.Events {
		e, err := ej.event()
		if err != nil {
			return err
		}
		events = append(events, e)
	}
	if err := s.store.AppendCtx(r.Context(), events); err != nil {
		return err
	}
	return writeJSON(w, map[string]int{"appended": len(events)})
}

// handleTopChangers is the analytics entry point: a TAF
// set-of-temporal-nodes pass over [ts, te) ranking nodes by recorded
// change count (?limit= bounds the list, default 10).
func (s *Server) handleTopChangers(w http.ResponseWriter, r *http.Request) error {
	ts, err := intParam(r, "ts")
	if err != nil {
		return err
	}
	te, err := intParam(r, "te")
	if err != nil {
		return err
	}
	limit, err := intParamDefault(r, "limit", 10)
	if err != nil {
		return err
	}
	son, err := s.store.Analytics(s.cfg.AnalyticsWorkers).SON().
		Timeslice(hgs.NewInterval(hgs.Time(ts), hgs.Time(te))).Fetch()
	if err != nil {
		return err
	}
	type changer struct {
		ID      graph.NodeID `json:"id"`
		Changes int          `json:"changes"`
	}
	var rows []changer
	for _, nt := range son.Collect() {
		if n := len(nt.Events()); n > 0 {
			rows = append(rows, changer{ID: nt.ID(), Changes: n})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Changes != rows[j].Changes {
			return rows[i].Changes > rows[j].Changes
		}
		return rows[i].ID < rows[j].ID
	})
	if int64(len(rows)) > limit {
		rows = rows[:limit]
	}
	if rows == nil {
		rows = []changer{}
	}
	return writeJSON(w, rows)
}
