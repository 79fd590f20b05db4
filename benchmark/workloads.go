package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// workloadDef is one workload: how it sets a store up, and what it does to
// it during the measured window. setup is timed whole as setup_s (event
// generation, Open, Load, warm-up).
type workloadDef struct {
	name   string
	why    string
	setup  func(p *pass) error
	window func(p *pass) error
	finish func(p *pass) // optional untimed checks after the window
}

var workloads = []workloadDef{
	{
		name:  "snapshot_warm",
		why:   "Snapshot(t) at spread times, memory engine, index fits the cache: zero KV reads, so core materialization, delta and graph do the work; a storage change must not move it",
		setup: setupSnapshotWarm, window: windowSnapshotWarm,
	},
	{
		name:  "point_cold",
		why:   "Node/NodeHistory/ChangeTimes/KHop mix, uniform ids, disk engine, cache a fifteenth of the index: fetch, kvstore, disklog reads and codec decode dominate; mirror of snapshot_warm",
		setup: setupPointCold, window: windowPointCold,
	},
	{
		name:  "ingest_mixed",
		why:   "Append batches into the trailing timespan with Node reads and a Snapshot after each, tiered engine, then reopen: write cost, post-append cache purge and stored bytes side by side",
		setup: setupIngestMixed, window: windowIngestMixed, finish: (*pass).reopenCheck,
	},
	{
		name:  "serve_http",
		why:   "The read mix over HTTP, Zipf ids and recent times: closed loop of 2 clients for capacity, then open loop at 60 req/s timed from due time; only here are server and net/http on the path",
		setup: setupServeHTTP, window: windowServeHTTP,
	},
	{
		name:  "taf_evolution",
		why:   "TAF jobs: SoN fetch over a quarter of history, Evolution of density at 8 points, NodeCompute; taf, sparklite and the SoN fetch of core are touched by no other workload",
		setup: setupTAF, window: windowTAF,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runConfig is what the command line fixes for one run.
type runConfig struct {
	seed    int64
	seconds float64
	scale   float64 // dataset scale: 1 in main, smaller only in the tests
	every   int     // oracle sampling period
	outDir  string  // traces and temporary data directories
}

// pass is one set-up plus one measured window, and everything observed
// from outside while it ran.
type pass struct {
	cfg    runConfig
	w      *workloadDef
	sz     sizing
	traced bool

	ds      *dataset
	st      *store
	engine  string
	dataDir string
	srv     *httpServer
	gen     *opGen

	setupS     float64
	loadS      float64
	loadEvents int

	windowOps int     // ops attempted inside the window
	cpuS      float64 // CPU seconds the process used during the window
	closedOps int     // ops the closed loop completed, and the wall time it
	closedS   float64 // took: ops_per_s (serve_http: phase A only)
	attempted int
	failed    int
	failures  []string

	// Latencies in ms.
	primary []float64           // the ops p50_ms is taken from
	appends []float64           // ingest_mixed: one per Append
	lat     [numKinds][]float64 // by op kind, for the per-layer op.* metrics
	seen    [numKinds]int
	sampled []answer

	allocs       uint64 // heap allocations during the part of the window allocsOps covers
	allocsOps    int
	ingestEvents int   // events appended by the window
	loaded       int   // events in the store: loaded by set-up plus appended
	diskBytes    int64 // size of the data directory after the window
	http         httpTotals

	before, after counters
	plan          planCounts // traced passes only
	resultItems   int64      // node states, events and times returned
	resultNodes   int64      // node states returned
	snapshots     int64      // snapshot answers, and the nodes in them
	snapshotNodes int64
	extra         metrics // per-layer metrics a window computes itself

	rec  *recorder
	root int
}

func (p *pass) failf(format string, args ...any) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// openLoaded generates the dataset, opens a store on the engine and loads
// the first n events (all when n is 0).
func (p *pass) openLoaded(engine string, cacheBytes int64, n int) error {
	p.ds = buildDataset(p.sz, p.cfg.seed)
	if n == 0 || n > len(p.ds.events) {
		n = len(p.ds.events)
	}
	cfg := storeConfig{engine: engine, cacheBytes: cacheBytes,
		timespanEvents: p.sz.timespanEvents, eventlistSize: p.sz.eventlistSize}
	if engine != "memory" {
		if err := os.MkdirAll(p.cfg.outDir, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(p.cfg.outDir, "data-"+p.w.name+"-")
		if err != nil {
			return err
		}
		p.dataDir, cfg.dataDir = dir, dir
	}
	st, err := openStore(cfg)
	if err != nil {
		return err
	}
	p.st, p.engine = st, engine
	t0 := time.Now()
	if err := st.load(p.ds.events[:n]); err != nil {
		return err
	}
	p.loadS, p.loadEvents = time.Since(t0).Seconds(), n
	p.gen = newOpGen(p.ds.prefix(n), p.cfg.seed)
	return nil
}

// warmUp takes a snapshot inside every eventlist stride, which pulls every
// tree delta and boundary eventlist of every timespan into the cache.
func (p *pass) warmUp() error {
	stride := p.sz.eventlistSize / 2
	for i := stride / 2; i < len(p.ds.events); i += stride {
		if _, err := p.st.snapshot(p.ds.events[i].Time, nil); err != nil {
			return err
		}
	}
	return nil
}

// teardown stops what the pass started and removes its data directory.
func (p *pass) teardown() {
	if p.srv != nil {
		_ = p.srv.shutdown() // the store closes next; a drain error changes nothing
		p.srv = nil
	}
	if p.st != nil {
		_ = p.st.close() // read-only from here on; the window already checked Close where it matters
		p.st = nil
	}
	if p.dataDir != "" {
		os.RemoveAll(p.dataDir)
		p.dataDir = ""
	}
}

// execOp makes the library call for a read op and shapes its answer.
func execOp(st *store, o op, pc *planCounts) (answer, error) {
	a := answer{op: o}
	var err error
	switch o.kind {
	case kindSnapshot:
		a.graph, err = st.snapshot(o.t, pc)
	case kindNode:
		a.node, err = st.node(o.id, o.t, pc)
		a.absent = err == nil && a.node == nil
	case kindHistory:
		a.node, a.events, err = st.history(o.id, o.t, o.te, pc)
	case kindChangeTimes:
		a.times, err = st.changeTimes(o.id, o.t, o.te, pc)
	case kindKHop1, kindKHop2:
		a.members, err = st.khop(o.id, o.k(), o.t, pc)
	default:
		err = fmt.Errorf("execOp: %s is not a read op", o.kind)
	}
	if isNotFound(err) {
		a.absent, err = true, nil
	}
	return a, err
}

// items counts what an answer returned, for keys-per-result.
func (a answer) items() (items, nodes int64) {
	if a.graph != nil {
		nodes = int64(a.graph.NumNodes())
	}
	if a.node != nil {
		nodes++
	}
	nodes += int64(len(a.members))
	items = nodes + int64(len(a.events)+len(a.times))
	if items == 0 {
		items = 1
	}
	return items, nodes
}

// count adds an answer to the totals the per-layer ratios divide by.
func (p *pass) count(a answer) {
	it, n := a.items()
	p.resultItems += it
	p.resultNodes += n
	if a.graph != nil {
		p.snapshots++
		p.snapshotNodes += int64(a.graph.NumNodes())
	}
}

// planOf returns the plan-trace sink of a traced pass.
func (p *pass) planOf() *planCounts {
	if p.traced {
		return &p.plan
	}
	return nil
}

// record books one finished op: its latency and its failure. It reports
// whether the op falls in the oracle's sample, in which case the caller
// keeps the answer in p.sampled.
func (p *pass) record(o op, err error, ms float64) (sample bool) {
	k := o.kind
	p.attempted++
	p.lat[k] = append(p.lat[k], ms)
	if err != nil {
		p.failf("%s(id=%d t=%d): %v", k, o.id, o.t, err)
		return false
	}
	every := p.cfg.every
	if k == kindTAF && every > 4 {
		every = 4 // a window holds tens of jobs, not thousands
	}
	p.seen[k]++
	return (p.seen[k]+int(p.cfg.seed%int64(every)))%every == 0
}

// keep books a library call: record, count what it returned, and retain
// the answer when sampled.
func (p *pass) keep(a answer, err error, ms float64) {
	sample := p.record(a.op, err, ms)
	if err != nil {
		return
	}
	p.count(a)
	if sample {
		p.sampled = append(p.sampled, a)
	}
}

// direct runs one read op against the store inside an op span and records
// it; the latency also counts as a primary sample when primary is set.
func (p *pass) direct(o op, primary bool) (ms float64) {
	opSpan := p.rec.begin(p.root, p.attempted+1, "op."+o.kind.String())
	call := p.rec.begin(opSpan, p.attempted+1, "store."+o.kind.String())
	t0 := time.Now()
	a, err := execOp(p.st, o, p.planOf())
	ms = msSince(t0)
	p.rec.end(call)
	p.keep(a, err, ms)
	p.rec.end(opSpan)
	if primary {
		p.primary = append(p.primary, ms)
	}
	return ms
}

// deadline is when a window that starts now ends: a window is fixed time,
// --seconds of it, and the ops it completes are what is measured.
func (p *pass) deadline() time.Time {
	return time.Now().Add(time.Duration(p.cfg.seconds * float64(time.Second)))
}

// closedLoop runs ops one after another, each sent when the previous
// answer arrived, until the window is over.
func (p *pass) closedLoop(next func() op) {
	m0, t0 := mallocs(), time.Now()
	for end := p.deadline(); time.Now().Before(end); {
		p.direct(next(), true)
	}
	p.closedOps, p.closedS = p.attempted, time.Since(t0).Seconds()
	p.allocs, p.allocsOps = mallocs()-m0, p.attempted
}

// --- snapshot_warm --------------------------------------------------------

func setupSnapshotWarm(p *pass) error {
	if err := p.openLoaded("memory", 0, 0); err != nil {
		return err
	}
	return p.warmUp()
}

func windowSnapshotWarm(p *pass) error {
	p.closedLoop(p.gen.snapshotOp)
	return nil
}

// --- point_cold -----------------------------------------------------------

func setupPointCold(p *pass) error { return p.openLoaded("disk", p.sz.coldCacheBytes, 0) }

func windowPointCold(p *pass) error {
	p.closedLoop(func() op { return p.gen.uniformOp(mixPoint) })
	return nil
}

// --- ingest_mixed ---------------------------------------------------------

// setupIngestMixed loads two full timespans, so every append of the window
// lands in the third, trailing one.
func setupIngestMixed(p *pass) error {
	return p.openLoaded("tiered", 0, 2*p.sz.timespanEvents)
}

// windowIngestMixed runs rounds until the window is over or the trailing
// timespan is three quarters full, each round {Append ingestBatch events;
// ingestReads Node reads in the newest full timespan, whose cost does not
// depend on how far the sweep has come; one Snapshot at the end of
// history}. After the rounds the store is closed, reopened from its
// directory alone, and checked against the oracle.
func windowIngestMixed(p *pass) error {
	batch := max(1, ingestBatch*p.sz.timespanEvents/baseTimespanEvents)
	loaded, full := p.loadEvents, p.loadEvents+3*p.sz.timespanEvents/4
	// The reads ask about the newest full timespan, the second one loaded.
	ts := p.sz.timespanEvents
	readN, readLo, readHi := p.ds.prefix(ts).nodes, p.ds.events[ts].Time, p.ds.events[2*ts-1].Time
	var snapMs []float64
	m0, start := mallocs(), time.Now()
	for end := p.deadline(); time.Now().Before(end) && loaded+batch <= full; {
		opID := p.attempted + 1
		opSpan := p.rec.begin(p.root, opID, "op.append")
		call := p.rec.begin(opSpan, opID, "append")
		t0 := time.Now()
		err := p.st.append(p.ds.events[loaded : loaded+batch])
		ms := msSince(t0)
		p.rec.end(call)
		p.record(op{kind: kindAppend, t: p.ds.events[loaded].Time}, err, ms)
		p.rec.end(opSpan)
		if err != nil {
			return fmt.Errorf("append at event %d: %w", loaded, err)
		}
		loaded += batch
		p.appends = append(p.appends, ms)

		round := p.root
		p.root = p.rec.begin(round, opID, "read-after-append") // the round's reads hang under it
		for i := 0; i < ingestReads; i++ {
			p.direct(p.gen.nodeOpIn(readN, readLo, readHi), true)
		}
		snapMs = append(snapMs, p.direct(op{kind: kindSnapshot, t: p.ds.events[loaded-1].Time}, false))
		p.rec.end(p.root)
		p.root = round
	}
	p.closedOps, p.closedS = p.attempted, time.Since(start).Seconds()
	p.allocs, p.allocsOps = mallocs()-m0, p.attempted
	p.ingestEvents = loaded - p.loadEvents
	p.extra["core.append_s_per_batch_p50"] = median(p.appends) / 1e3
	p.extra["core.append_s_first_vs_last"] = ratio(p.appends[len(p.appends)-1], p.appends[0])
	p.extra["core.snapshot_after_append_ms"] = median(snapMs)
	p.loaded = loaded
	return nil
}

// reopenCheck is the durability half of ingest_mixed: Close, open from the
// directory alone, and require the history to end at the last acknowledged
// event and the final snapshot to equal the oracle's. Each requirement is
// one attempted op.
func (p *pass) reopenCheck() {
	last := p.ds.events[p.loaded-1].Time
	sp := p.rec.begin(p.root, p.attempted+1, "reopen")
	defer p.rec.end(sp)
	p.attempted += 2
	if err := p.st.close(); err != nil {
		p.failf("close: %v", err)
	}
	p.st = nil
	t0 := time.Now()
	st, err := reopenStore(p.dataDir)
	if err != nil {
		p.failf("reopen: %v", err)
		p.failed++ // neither requirement can hold
		return
	}
	p.st = st
	p.extra["backend.tiered.reopen_s"] = time.Since(t0).Seconds()
	if _, end, err := st.timeRange(); err != nil || end != last {
		p.failf("reopened history ends at %d (err %v), last acknowledged event is %d", end, err, last)
	}
	g, err := st.snapshot(last, nil)
	if err != nil {
		p.failf("snapshot after reopen: %v", err)
		return
	}
	p.sampled = append(p.sampled, answer{op: op{kind: kindSnapshot, t: last}, graph: g})
}

// --- taf_evolution --------------------------------------------------------

func setupTAF(p *pass) error {
	if err := p.openLoaded("memory", 0, 0); err != nil {
		return err
	}
	return p.warmUp()
}

func windowTAF(p *pass) error {
	var sonNodes []float64
	m0, start := mallocs(), time.Now()
	for end := p.deadline(); time.Now().Before(end); {
		o := p.gen.tafOp()
		opID := p.attempted + 1
		opSpan := p.rec.begin(p.root, opID, "op.taf")
		a := answer{op: o}
		t0 := time.Now()
		sp := p.rec.begin(opSpan, opID, "taf.fetch")
		job, n, err := p.st.tafFetch(o.t, o.te)
		p.rec.end(sp)
		if err == nil {
			sp = p.rec.begin(opSpan, opID, "taf.evolution")
			a.times, a.density = job.evolution()
			p.rec.end(sp)
			sp = p.rec.begin(opSpan, opID, "taf.compute")
			a.changes = job.compute()
			p.rec.end(sp)
			sonNodes = append(sonNodes, float64(n))
		}
		ms := msSince(t0)
		p.keep(a, err, ms)
		p.rec.end(opSpan)
		p.primary = append(p.primary, ms)
	}
	p.closedOps, p.closedS = p.attempted, time.Since(start).Seconds()
	p.allocs, p.allocsOps = mallocs()-m0, p.attempted
	p.extra["taf.nodes_per_son"] = mean(sonNodes)
	return nil
}

// --- serve_http -----------------------------------------------------------

func setupServeHTTP(p *pass) error {
	if err := p.openLoaded("memory", 0, 0); err != nil {
		return err
	}
	if err := p.warmUp(); err != nil {
		return err
	}
	srv, err := p.st.serve(maxInFlight)
	p.srv = srv
	return err
}

// httpTotals sums what serve_http's clients saw, and what the traced
// client's twin calls cost.
type httpTotals struct {
	shed, deadlineMiss, responseBytes float64
	twins                             float64 // traced requests, each made three ways
	roundtripMs, handlerMs, directMs  float64 // sums over the twins
}

// httpResult is one HTTP request as the client saw it.
type httpResult struct {
	op     op
	status int
	body   []byte
	err    error
	ms     float64 // closed loop: round trip; open loop: from due time
	lateMs float64 // open loop: how long after its due time it was sent
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
		DialContext: (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}, Timeout: 30 * time.Second}
}

func httpGet(c *http.Client, addr string, o op) httpResult {
	r := httpResult{op: o}
	resp, err := c.Get("http://" + addr + opURL(o))
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	r.body, r.err = io.ReadAll(resp.Body)
	return r
}

// bookHTTP records one HTTP result. 404 is an answer (the oracle decides
// whether it is the right one); 429, 504, any other status and any
// transport error are failed ops. Only sampled bodies are decoded, so the
// client costs the server's cores as little as it can.
func (p *pass) bookHTTP(r httpResult) {
	err := r.err
	if err == nil && r.status != http.StatusOK && r.status != http.StatusNotFound {
		err = fmt.Errorf("HTTP %d", r.status)
	}
	switch r.status {
	case http.StatusTooManyRequests:
		p.http.shed++
	case http.StatusGatewayTimeout:
		p.http.deadlineMiss++
	}
	p.http.responseBytes += float64(len(r.body))
	if !p.record(r.op, err, r.ms) {
		return
	}
	a := answer{op: r.op, absent: r.status == http.StatusNotFound}
	if !a.absent {
		if a, err = decodeBody(r.op, r.body); err != nil {
			p.failf("%s body: %v", r.op.kind, err)
			return
		}
	}
	p.sampled = append(p.sampled, a)
}

// windowServeHTTP spends 45% of the window on phase A and 55% on phase B.
//
// Phase A, closed loop: 2 clients (1 when traced), each sending its next
// request when the previous answer arrived; ops_per_s (requests completed
// over the phase's wall time) and allocs_per_op come from here. When traced, the single client follows every round trip
// with the same request made straight to the handler on a recorder and
// the same query made straight to the store, so serving and network
// overhead separate.
//
// Phase B, open loop: one scheduler sends at httpRate req/s whatever the
// server does, through 2 connections; each request is timed from the
// moment it was due, so a stall is charged to every request it delays.
// p50_ms comes from here.
func windowServeHTTP(p *pass) error {
	clients := min(2, runtime.NumCPU())
	if p.traced {
		clients = 1
	}
	client := newHTTPClient(2)
	defer client.CloseIdleConnections()
	next := func() op { return p.gen.skewedOp(mixServe) }

	// Phase A.
	var mu sync.Mutex // guards p and the op stream between the two clients
	var wg sync.WaitGroup
	m0, start := mallocs(), time.Now()
	endA := start.Add(time.Duration(0.45 * p.cfg.seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(endA) {
				mu.Lock()
				o := next()
				mu.Unlock()
				t0 := time.Now()
				r := httpGet(client, p.srv.addr, o)
				r.ms = msSince(t0)
				mu.Lock()
				if p.traced {
					p.tracedTwin(r, t0)
				} else {
					p.bookHTTP(r)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.closedOps, p.closedS = p.attempted, time.Since(start).Seconds()
	p.allocs, p.allocsOps = mallocs()-m0, p.attempted

	// Phase B.
	n := max(1, int(httpRate*0.55*p.cfg.seconds))
	type due struct {
		o  op
		i  int
		at time.Time
	}
	queue := make(chan due, n) // holds the whole schedule: the scheduler never blocks on a busy connection
	results := make([]httpResult, n)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range queue {
				sent := time.Now()
				r := httpGet(client, p.srv.addr, d.o)
				r.ms, r.lateMs = msSince(d.at), float64(sent.Sub(d.at).Nanoseconds())/1e6
				results[d.i] = r // each index is written by one worker
			}
		}()
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(i) * time.Second / httpRate)
		time.Sleep(time.Until(at))
		queue <- due{next(), i, at}
	}
	close(queue)
	wg.Wait()
	late := make([]float64, n)
	over := 0
	for i, r := range results {
		before := p.failed
		p.bookHTTP(r)
		p.primary = append(p.primary, r.ms)
		late[i] = r.lateMs
		if r.ms > httpLimitMs || p.failed > before {
			over++
		}
	}
	p.extra["server.generator_late_ms_p95"] = percentile(late, 95)
	p.extra["server.over_limit_ratio"] = ratio(float64(over), float64(n))
	return nil
}

// tracedTwin books a traced phase-A request under one op span with three
// children: the round trip already made, the same request served by the
// handler on a recorder, and the same query asked of the store directly.
func (p *pass) tracedTwin(r httpResult, sent time.Time) {
	opID := p.attempted + 1
	opSpan := p.rec.beginAt(p.root, opID, "op."+r.op.kind.String(), sent)
	rt := p.rec.beginAt(opSpan, opID, "http.roundtrip", sent)
	p.rec.endAt(rt, sent.Add(time.Duration(r.ms*1e6)))

	h := p.rec.begin(opSpan, opID, "server.handler")
	t0 := time.Now()
	w := httptest.NewRecorder()
	p.srv.handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, opURL(r.op), nil))
	p.http.handlerMs += msSince(t0)
	p.rec.end(h)

	d := p.rec.begin(opSpan, opID, "store.direct")
	t0 = time.Now()
	a, err := execOp(p.st, r.op, &p.plan)
	p.http.directMs += msSince(t0)
	p.rec.end(d)
	if err != nil {
		p.failf("direct %s: %v", r.op.kind, err)
	}
	p.count(a)
	p.http.roundtripMs += r.ms
	p.http.twins++
	p.bookHTTP(r)
	p.rec.end(opSpan)
}

// --- running --------------------------------------------------------------

// timedSetup runs the workload's set-up and times all of it.
func (p *pass) timedSetup() error {
	t0 := time.Now()
	if err := p.w.setup(p); err != nil {
		return fmt.Errorf("%s set-up: %w", p.w.name, err)
	}
	p.setupS = time.Since(t0).Seconds()
	return nil
}

// runPass does one set-up and one window of w and verifies the sampled
// answers. The store stays open for the probes; the caller tears down.
func runPass(w *workloadDef, cfg runConfig, traced bool) (*pass, error) {
	p := newPass(w, cfg, traced)
	if err := p.timedSetup(); err != nil {
		return p, err
	}
	return p, p.measure()
}

func newPass(w *workloadDef, cfg runConfig, traced bool) *pass {
	return &pass{cfg: cfg, w: w, sz: sizingFor(cfg.scale), traced: traced, extra: make(metrics)}
}

// measure runs the window of a set-up pass between two counter readings,
// then the untimed checks.
func (p *pass) measure() error {
	var err error
	if p.before, err = p.st.counters(); err != nil {
		return err
	}
	if p.traced {
		p.rec = newRecorder()
		p.root = p.rec.begin(0, 0, "workload."+p.w.name)
	}
	runtime.GC() // start every window from a collected heap
	cpu0 := cpuSeconds()
	if err := p.w.window(p); err != nil {
		return fmt.Errorf("%s window: %w", p.w.name, err)
	}
	p.windowOps, p.cpuS = p.attempted, cpuSeconds()-cpu0
	if p.after, err = p.st.counters(); err != nil {
		return err
	}
	if p.dataDir != "" {
		p.diskBytes = dirBytes(p.dataDir)
	}
	if p.w.finish != nil {
		p.w.finish(p)
	}
	p.rec.end(p.root)
	for _, msg := range verify(p.ds.events, p.sampled) {
		p.failf("%s", msg)
	}
	p.sampled = nil
	return nil
}

// dirBytes is the size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
