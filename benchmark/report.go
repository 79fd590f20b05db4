package main

import "fmt"

// metrics maps a metric name to its value.
type metrics map[string]float64

// result is what one run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	failures []string
	primary  []float64 // the latency samples behind p50_ms and tail_ms
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(p *pass, specs []metricSpec, m metrics) *result {
	r := &result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed,
		Metrics: make(map[string]metricValue, len(specs)), failures: p.failures, primary: p.primary}
	for _, s := range specs {
		r.Metrics[s.Name] = metricValue{m[s.Name], s.Unit}
	}
	return r
}

// opsPerS is the pass's measured closed-loop throughput: ops completed
// and correct, over the wall time the loop took.
func (p *pass) opsPerS() float64 {
	return ratio(float64(p.closedOps), p.closedS) * (1 - ratio(float64(p.failed), float64(p.attempted)))
}

// runEndToEnd is a --trace 0 run: one set-up, one window of --seconds,
// every metric as measured over that window.
func runEndToEnd(w *workloadDef, cfg runConfig) (*result, error) {
	p, err := runPass(w, cfg, false)
	defer p.teardown()
	if err != nil {
		return nil, err
	}
	m := metrics{
		"setup_s":                p.setupS,
		"ops_per_s":              p.opsPerS(),
		"p50_ms":                 percentile(p.primary, 50),
		"ingest_events_per_s":    ratio(float64(p.loadEvents), p.loadS),
		"allocs_per_op":          ratio(float64(p.allocs), float64(p.allocsOps)),
		"stored_bytes_per_event": ratio(float64(p.after.StoredBytes), float64(p.after.Events)),
	}
	if len(p.appends) > 0 {
		m["ingest_events_per_s"] = float64(p.ingestEvents) / (sum(p.appends) / 1e3)
	}
	return newResult(p, endToEnd, m), nil
}

// runTraced is a --trace 1 run: one untraced pass and one traced pass of
// half the window each, then the probes on the traced pass's store.
func runTraced(w *workloadDef, cfg runConfig) (*result, string, error) {
	cfg.seconds /= 2
	u, err := runPass(w, cfg, false)
	u.teardown()
	if err != nil {
		return nil, "", err
	}
	p, err := runPass(w, cfg, true)
	defer p.teardown()
	if err != nil {
		return nil, "", err
	}
	m := p.layerCounts()
	m["trace.overhead_ratio"] = ratio(p.opsPerS(), u.opsPerS())
	if err := p.probes(m); err != nil {
		return nil, "", err
	}
	p.shares(m)
	path, err := writeTrace(cfg.outDir, w.name, cfg.seed, p.rec.spans)
	if err != nil {
		return nil, "", err
	}
	r := newResult(p, perLayer, m)
	r.Attempted += u.attempted
	r.Failed += u.failed
	r.Correct = r.Failed == 0
	r.failures = append(r.failures, u.failures...)
	return r, path, nil
}

// layerCounts derives the count-based per-layer metrics from the counter
// deltas, plan traces and spans of a traced pass.
func (p *pass) layerCounts() metrics {
	d := p.after.sub(p.before)
	ops := float64(p.windowOps)
	m := metrics{}
	for k, v := range p.extra {
		m[k] = v
	}

	// The fetch layer's counts come from the per-call plan traces where
	// the call takes one; TAF and HTTP calls do not, and fall back to the
	// store-wide counters (the cache sees every planned delta request,
	// which is most of a plan).
	lookups := float64(d.CacheHits + d.CacheNeg + d.CacheMisses)
	planned, reads, trips, bytes, per := lookups, float64(d.Reads), float64(d.RoundTrips), float64(d.BytesRead), ops
	if p.plan.calls > 0 {
		planned, reads, trips, bytes, per = float64(p.plan.plannedKeys), float64(p.plan.kvReads),
			float64(p.plan.roundTrips), float64(p.plan.bytesRead), float64(p.plan.calls)
	}
	m["fetch.plan_keys_per_op"] = ratio(planned, per)
	m["fetch.keys_per_result"] = ratio(float64(p.plan.plannedKeys), float64(p.resultItems))
	m["fetch.kv_reads_per_op"] = ratio(reads, per)
	m["fetch.round_trips_per_op"] = ratio(trips, per)
	m["fetch.bytes_read_per_op"] = ratio(bytes, per)
	m["fetch.cache_hit_ratio"] = ratio(float64(d.CacheHits+d.CacheNeg), lookups)
	m["fetch.cache_neg_hit_ratio"] = ratio(float64(d.CacheNeg), lookups)
	m["fetch.cache_evictions_per_op"] = ratio(float64(d.CacheEvictions), ops)
	m["fetch.cache_admit_ratio"] = ratio(float64(d.CacheAdmissions), float64(d.CacheAdmissions+d.CacheRejects))

	m["kvstore.reads_per_op"] = ratio(float64(d.Reads), ops)
	written, events := float64(p.before.Writes), float64(p.loadEvents) // Load's writes, unless the window appended
	bytesWritten := float64(p.before.BytesWritten)
	if len(p.appends) > 0 {
		written, bytesWritten, events = float64(d.Writes), float64(d.BytesWritten), float64(p.ingestEvents)
	}
	m["kvstore.writes_per_event"] = ratio(written, events)
	m["kvstore.bytes_written_per_event"] = ratio(bytesWritten, events)
	m["kvstore.degraded_reads"] = float64(p.after.DegradedReads)
	m["kvstore.hinted_writes"] = float64(p.after.HintedWrites)
	m["kvstore.read_repairs"] = float64(p.after.ReadRepairs)

	m["codec.pool_hit_ratio"] = ratio(float64(d.PoolHits), float64(d.PoolHits+d.PoolMisses))
	m["backend.tiered.cold_read_ratio"] = ratio(float64(d.TierCold), float64(d.TierCold+d.TierHot))
	m["backend.tiered.flushed_bytes_per_event"] = ratio(float64(d.FlushedBytes), float64(p.ingestEvents))
	m["backend.tiered.compactions"] = float64(d.Compactions)
	perEvent := ratio(float64(p.diskBytes), float64(p.after.Events))
	switch p.engine {
	case "disk":
		m["backend.disklog.disk_bytes_per_event"] = perEvent
	case "tiered":
		m["backend.tiered.disk_bytes_per_event"] = perEvent
	}

	m["core.build_events_per_s"] = ratio(float64(p.loadEvents), p.loadS)
	m["graph.nodes_per_snapshot"] = ratio(float64(p.snapshotNodes), float64(p.snapshots))

	if p.rec != nil {
		jobs := float64(len(p.lat[kindTAF]))
		m["taf.fetch_s_per_job"] = ratio(sum(durationsMs(p.rec.spans, "taf.fetch"))/1e3, jobs)
		m["taf.evolution_s_per_job"] = ratio(sum(durationsMs(p.rec.spans, "taf.evolution"))/1e3, jobs)
		m["taf.compute_ms_per_job"] = ratio(sum(durationsMs(p.rec.spans, "taf.compute")), jobs)
	}
	if h := p.http; h.twins > 0 {
		m["server.handler_ms_per_op"] = h.handlerMs / h.twins
		m["core.store_direct_ms_per_op"] = h.directMs / h.twins
		m["server.overhead_ms_per_op"] = (h.handlerMs - h.directMs) / h.twins
		m["server.net_ms_per_op"] = (h.roundtripMs - h.handlerMs) / h.twins
	}
	m["server.response_bytes_per_op"] = ratio(p.http.responseBytes, ops)
	m["server.shed_ratio"] = ratio(p.http.shed, ops)
	m["server.deadline_miss_ratio"] = ratio(p.http.deadlineMiss, ops)

	m["op.snapshot_p50_ms"] = percentile(p.lat[kindSnapshot], 50)
	m["op.snapshot_p95_ms"] = percentile(p.lat[kindSnapshot], 95)
	m["op.node_p50_ms"] = percentile(p.lat[kindNode], 50)
	m["op.node_p99_ms"] = percentile(p.lat[kindNode], 99)
	m["op.history_p50_ms"] = percentile(p.lat[kindHistory], 50)
	m["op.changetimes_p50_ms"] = percentile(p.lat[kindChangeTimes], 50)
	m["op.khop1_p50_ms"] = percentile(p.lat[kindKHop1], 50)
	m["op.khop1_p95_ms"] = percentile(p.lat[kindKHop1], 95)
	m["op.khop2_p50_ms"] = percentile(p.lat[kindKHop2], 50)
	if p.srv != nil {
		m["op.http_p95_ms"] = percentile(p.primary, 95) // phase B
	}
	return m
}

// probes times each layer's public functions in isolation, on payloads
// harvested from this pass's own store.
func (p *pass) probes(m metrics) error {
	c := p.st.cluster()
	h := harvestRows(c, 256)
	dec, err := probeCodec(h, m)
	if err != nil {
		return err
	}
	probeDelta(dec, m)
	probeGraph(p.ds.events, m)
	probePartition(m)
	probeRing(m)
	probeSparklite(m)
	probeKVStore(c, h, m)
	if err := probeFetch(c, h, m); err != nil {
		return err
	}
	if err := probeMemtable(h, m); err != nil {
		return err
	}
	if err := probeDisklog(p.cfg.outDir, h, m); err != nil {
		return err
	}
	return probeTiered(p.cfg.outDir, h, m)
}

// shares estimates each layer's share of the CPU seconds the process used
// during the window as probe unit cost x counted work, and reports what no
// estimate covers. The estimates are made from outside the program: they
// say where the time can be, they do not measure it (a probe runs its
// layer alone on one core, the window runs it beside everything else).
func (p *pass) shares(m metrics) {
	d := p.after.sub(p.before)
	cpuNs := p.cpuS * 1e9
	kbRead, kbWritten := float64(d.BytesRead)/1024, 0.0
	if len(p.appends) > 0 {
		kbWritten = float64(d.BytesWritten) / 1024
	}
	lookups := float64(d.CacheHits + d.CacheNeg + d.CacheMisses)
	est := map[string]float64{
		"codec.est_share": m["codec.decode_delta_ns_per_kb"]*kbRead + m["codec.encode_delta_ns_per_kb"]*kbWritten,
		"delta.est_share": m["delta.apply_ns_per_node"] * float64(p.resultNodes),
		"fetch.est_share": m["fetch.exec_warm_ns_per_key"] * lookups,
		"kvstore.est_share": m["kvstore.multiget_ns_per_key"]*float64(d.Reads) +
			m["kvstore.put_ns"]*float64(d.Writes),
	}
	total := 0.0
	for k, ns := range est {
		m[k] = ratio(ns, cpuNs)
		total += m[k]
	}
	m["core.unattributed_share"] = 1 - total
}

// printHuman prints a result as one "name value unit" line per metric, in
// spec order.
func printHuman(w *workloadDef, r *result, specs []metricSpec) {
	fmt.Printf("workload %s: attempted %d, failed %d, fail_ratio %.6f",
		w.name, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	fmt.Println()
	if len(r.primary) > 0 {
		fmt.Printf("  latency over %d samples:", len(r.primary))
		for _, q := range []float64{50, 75, 90, 95, 98, 99} {
			fmt.Printf(" p%.0f %.3f", q, percentile(r.primary, q))
		}
		fmt.Println(" ms")
	}
	for _, f := range r.failures {
		fmt.Println("  FAILED:", f)
	}
	for _, s := range specs {
		fmt.Printf("  %-42s %14.4f %s\n", s.Name, r.Metrics[s.Name].Value, s.Unit)
	}
}
