package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"hgs/internal/codec"
	"hgs/internal/fetch"
	"hgs/internal/graph"
	"hgs/internal/kvstore"
	"hgs/internal/obs"
	"hgs/internal/temporal"
)

// TGI is the Temporal Graph Index: construction (Index Manager), metadata
// caching and retrieval planning (Query Manager) over a distributed
// key-value store (paper Figure 3c). Every retrieval runs through the
// unified fetch layer (fx): planned key sets, batched per-node reads,
// and the decoded-delta cache.
type TGI struct {
	cfg    Config
	store  *kvstore.Cluster
	cdc    codec.Codec
	meta   *metaStore
	fx     *fetch.Executor
	traces *traceRing
	// opHists caches the per-op latency histogram pair of each
	// operation name, so the retrieval hot path skips the registry's
	// family lookup (sync.Map: written once per op, read per call).
	opHists sync.Map // op string -> *opHist
}

// New creates an index handle over the given store. The store may be
// empty (build with Build/Append) or already contain an index written
// with the same configuration.
func New(store *kvstore.Cluster, cfg Config) *TGI {
	cfg.normalize()
	cdc := codec.Codec{Compress: cfg.Compress}
	t := &TGI{
		cfg:    cfg,
		store:  store,
		cdc:    cdc,
		meta:   newMetaStore(),
		fx:     fetch.NewExecutor(store, cdc, fetch.NewCache(cfg.cacheBudget())),
		traces: newTraceRing(),
	}
	t.fx.Cache().RegisterObs(cfg.Obs)
	codec.RegisterObs(cfg.Obs)
	return t
}

// Build constructs a fresh index over the complete event history: an
// Append into the empty index, which rejects an empty history.
// Events must be chronologically sorted with strictly increasing
// timestamps (a total order over changes; see DESIGN.md).
func Build(store *kvstore.Cluster, cfg Config, events []graph.Event) (*TGI, error) {
	t := New(store, cfg)
	if err := t.Append(events); err != nil {
		return nil, err
	}
	return t, nil
}

// Attach opens an index handle over a store that may already contain a
// persisted index (a durable backend reopened by a new process). When
// graph metadata is found, the configuration it was built with replaces
// cfg — construction parameters are properties of the stored index, not
// of the process reading it — and attached reports true; queries can
// then run without a rebuild. An empty store attaches nothing and the
// handle behaves exactly like New's.
func Attach(store *kvstore.Cluster, cfg Config) (*TGI, bool, error) {
	t := New(store, cfg)
	blob, ok := store.Get(TableGraph, "graph", "info")
	if !ok {
		return t, false, nil
	}
	gm := &GraphMeta{}
	if err := json.Unmarshal(blob, gm); err != nil {
		return nil, false, fmt.Errorf("core: decode persisted graph metadata: %w", err)
	}
	// Construction parameters come from the store; the json:"-" fields
	// (CacheBytes, TracePlans and the Obs registry) are properties of the
	// reading process and survive the adoption.
	t.cfg = gm.Config
	t.cfg.CacheBytes = cfg.CacheBytes
	t.cfg.TracePlans = cfg.TracePlans
	t.cfg.Obs = cfg.Obs
	t.cfg.normalize()
	t.cdc = codec.Codec{Compress: t.cfg.Compress}
	t.fx = fetch.NewExecutor(store, t.cdc, fetch.NewCache(t.cfg.cacheBudget()))
	t.fx.Cache().RegisterObs(t.cfg.Obs)
	t.meta.mu.Lock()
	t.meta.graph = gm
	t.meta.mu.Unlock()
	return t, true, nil
}

// Config returns the index configuration.
func (t *TGI) Config() Config { return t.cfg }

// Store returns the backing cluster (used by benchmarks for metrics).
func (t *TGI) Store() *kvstore.Cluster { return t.store }

// CacheStats returns the decoded-delta cache counters (zero when the
// cache is disabled).
func (t *TGI) CacheStats() fetch.CacheStats { return t.fx.Cache().Stats() }

// traceKeep bounds the per-handle plan-trace ring: enough recent
// queries to debug a workload without growing with it.
const traceKeep = 32

// traceRing keeps the most recent plan-trace records of a handle.
type traceRing struct {
	mu     sync.Mutex
	recent []fetch.TraceRecord
}

func newTraceRing() *traceRing { return &traceRing{} }

func (r *traceRing) add(rec fetch.TraceRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recent = append(r.recent, rec)
	if len(r.recent) > traceKeep {
		r.recent = append(r.recent[:0], r.recent[len(r.recent)-traceKeep:]...)
	}
}

func (r *traceRing) snapshot() []fetch.TraceRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]fetch.TraceRecord(nil), r.recent...)
}

// opHist is the per-op latency histogram pair: retrieval wall time
// and the modelled storage time the plan trace attributed.
type opHist struct {
	dur, simWait *obs.Histogram
}

// Per-op latency histogram family names and help texts (the obs
// registry keys hgs.Store metrics are exposed under).
const (
	opDurationFamily = "hgs_op_duration_seconds"
	opDurationHelp   = "Wall time of TGI operations by op (retrievals, append, build)."
	opSimWaitFamily  = "hgs_op_simwait_seconds"
	opSimWaitHelp    = "Modelled storage service time attributed to retrievals by op (a clock; nothing waits)."
)

// opHistFor returns (creating once) the histogram pair of an op.
func (t *TGI) opHistFor(op string) *opHist {
	if h, ok := t.opHists.Load(op); ok {
		return h.(*opHist)
	}
	h := &opHist{
		dur:     t.cfg.Obs.Histogram(opDurationFamily, opDurationHelp, nil, obs.L("op", op)),
		simWait: t.cfg.Obs.Histogram(opSimWaitFamily, opSimWaitHelp, nil, obs.L("op", op)),
	}
	actual, _ := t.opHists.LoadOrStore(op, h)
	return actual.(*opHist)
}

// startTrace resolves the trace one retrieval should fill and returns
// the finisher its caller must defer. The trace is the caller-supplied
// FetchOptions.Trace when present, else a fresh one when
// Config.TracePlans or an Obs registry asks for per-retrieval
// accounting, else nil (every fetch.Trace method is nil-safe, so
// retrieval code threads the result unconditionally). The finisher
// records an owned trace into the ring — caller-supplied traces belong
// to the caller and are never double-recorded — and observes the operation's wall time and trace-
// attributed simulated wait into the per-op latency histograms. For a
// reused caller trace the simulated wait is the delta accumulated
// during this call, so each retrieval observes only its own cost.
func (t *TGI) startTrace(op string, opts *FetchOptions) (tr *fetch.Trace, done func()) {
	start := time.Now()
	own := false
	switch {
	case opts != nil && opts.Trace != nil:
		tr = opts.Trace
		tr.SetOp(op)
	case t.cfg.TracePlans || t.cfg.Obs != nil:
		tr = &fetch.Trace{}
		tr.SetOp(op)
		own = true
	}
	var simBase time.Duration
	if tr != nil && t.cfg.Obs != nil {
		simBase = tr.Record().SimWait
	}
	return tr, func() {
		if own && t.cfg.TracePlans {
			t.traces.add(tr.Record())
		}
		if t.cfg.Obs == nil {
			return
		}
		h := t.opHistFor(op)
		h.dur.Observe(time.Since(start).Seconds())
		if tr != nil {
			h.simWait.Observe((tr.Record().SimWait - simBase).Seconds())
		}
	}
}

// observeDur records one ingest operation's wall time into the per-op
// duration histogram (the write path has no plan trace; its simulated
// wait is charged straight to the cluster counters).
func (t *TGI) observeDur(op string, start time.Time) {
	if t.cfg.Obs == nil {
		return
	}
	t.opHistFor(op).dur.Observe(time.Since(start).Seconds())
}

// PlanTraces returns the handle's most recent per-query plan traces,
// oldest first (empty unless Config.TracePlans is on).
func (t *TGI) PlanTraces() []fetch.TraceRecord { return t.traces.snapshot() }

// TimeRange returns the [first, last] event times covered by the index.
func (t *TGI) TimeRange() (temporal.Time, temporal.Time, error) {
	gm, err := t.loadGraphMeta()
	if err != nil {
		return 0, 0, err
	}
	return gm.Start, gm.End, nil
}

// validateEvents enforces the strictly-increasing-time contract.
func validateEvents(events []graph.Event) error {
	for i := 1; i < len(events); i++ {
		if events[i].Time <= events[i-1].Time {
			return fmt.Errorf("core: event %d time %d not after previous time %d (strictly increasing times required)",
				i, events[i].Time, events[i-1].Time)
		}
	}
	return nil
}
