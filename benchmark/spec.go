package main

import (
	"encoding/json"
	"strings"
)

// spec.go is the benchmark's contract in code: the command, the workloads
// with their reasons, and every metric name with unit, direction and
// bound. BENCHMARK.json at the repository root is this file printed with
// -print-spec; a test fails when the two differ.

const (
	runSeconds    = 10    // window length the driver asks for
	sampleEvery   = 50    // one answer in this many is checked by the oracle
	httpRate      = 60    // open-loop requests per second, about a third of closed-loop capacity
	httpLimitMs   = 200.0 // serve_http latency limit per request, from due time
	ingestBatch   = 1000  // events per Append
	ingestReads   = 20    // Node reads after each append
	maxInFlight   = 8
	minProbeIters = 1000
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Every workload reports every end-to-end metric; what a metric means on
// a workload is fixed in README.md ("End-to-end metrics"). A bound is three
// times the quartile spread the metric showed over ten seeds on its
// noisiest workload (README.md, "Repeatability"), which for the wall-clock
// metrics is the widest the driver allows: the host's speed on
// memory-bound work drifts by tens of percent over minutes.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"ingest_events_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.2},
	{"stored_bytes_per_event", "B", "lower", 0.02},
}

func lower(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: "higher"}
}

// Per-layer metrics, named after the modules. A metric whose layer is not
// on a workload's path reads 0 there.
var perLayer = []metricSpec{
	lower("codec.decode_delta_ns_per_kb", "ns/KB"),
	lower("codec.decode_events_ns_per_kb", "ns/KB"),
	lower("codec.encode_delta_ns_per_kb", "ns/KB"),
	lower("codec.encode_events_ns_per_kb", "ns/KB"),
	lower("codec.decode_allocs_per_kb", "count"),
	higher("codec.pool_hit_ratio", "ratio"),
	lower("codec.est_share", "ratio"),

	lower("delta.apply_ns_per_node", "ns"),
	lower("delta.apply_allocs_per_node", "count"),
	lower("delta.eventlist_apply_ns_per_event", "ns"),
	lower("delta.sum_ns_per_node", "ns"),
	lower("delta.est_share", "ratio"),

	lower("graph.from_events_ns_per_event", "ns"),
	lower("graph.nodes_per_snapshot", "count"),

	lower("partition.hash_pid_ns", "ns"),

	lower("fetch.plan_keys_per_op", "count"),
	lower("fetch.keys_per_result", "count"),
	higher("fetch.cache_hit_ratio", "ratio"),
	higher("fetch.cache_neg_hit_ratio", "ratio"),
	lower("fetch.cache_evictions_per_op", "count"),
	higher("fetch.cache_admit_ratio", "ratio"),
	lower("fetch.kv_reads_per_op", "count"),
	lower("fetch.round_trips_per_op", "count"),
	lower("fetch.bytes_read_per_op", "B"),
	lower("fetch.cache_lookup_ns", "ns"),
	lower("fetch.exec_warm_ns_per_key", "ns"),
	lower("fetch.exec_cold_ns_per_key", "ns"),
	lower("fetch.est_share", "ratio"),

	lower("kvstore.reads_per_op", "count"),
	lower("kvstore.writes_per_event", "count"),
	lower("kvstore.bytes_written_per_event", "B"),
	lower("kvstore.get_ns", "ns"),
	lower("kvstore.multiget_ns_per_key", "ns"),
	lower("kvstore.scan_ns_per_row", "ns"),
	lower("kvstore.put_ns", "ns"),
	lower("kvstore.degraded_reads", "count"),
	lower("kvstore.hinted_writes", "count"),
	lower("kvstore.read_repairs", "count"),
	lower("kvstore.est_share", "ratio"),

	lower("ring.lookup_ns", "ns"),

	lower("backend.memtable.get_ns", "ns"),
	lower("backend.memtable.put_ns", "ns"),
	lower("backend.memtable.scan_ns_per_row", "ns"),

	lower("backend.disklog.get_ns", "ns"),
	lower("backend.disklog.batch_get_ns_per_key", "ns"),
	lower("backend.disklog.put_ns", "ns"),
	lower("backend.disklog.disk_bytes_per_event", "B"),

	lower("backend.tiered.put_ns", "ns"),
	lower("backend.tiered.get_hot_ns", "ns"),
	lower("backend.tiered.cold_read_ratio", "ratio"),
	lower("backend.tiered.flushed_bytes_per_event", "B"),
	lower("backend.tiered.compactions", "count"),
	lower("backend.tiered.disk_bytes_per_event", "B"),
	lower("backend.tiered.reopen_s", "s"),

	higher("core.build_events_per_s", "1/s"),
	lower("core.append_s_per_batch_p50", "s"),
	lower("core.append_s_first_vs_last", "ratio"),
	lower("core.snapshot_after_append_ms", "ms"),
	lower("core.store_direct_ms_per_op", "ms"),
	lower("core.unattributed_share", "ratio"),

	lower("taf.fetch_s_per_job", "s"),
	lower("taf.evolution_s_per_job", "s"),
	lower("taf.compute_ms_per_job", "ms"),
	lower("taf.nodes_per_son", "count"),

	lower("sparklite.map_ns_per_item", "ns"),

	lower("server.handler_ms_per_op", "ms"),
	lower("server.overhead_ms_per_op", "ms"),
	lower("server.net_ms_per_op", "ms"),
	lower("server.response_bytes_per_op", "B"),
	lower("server.shed_ratio", "ratio"),
	lower("server.deadline_miss_ratio", "ratio"),
	lower("server.over_limit_ratio", "ratio"),
	lower("server.generator_late_ms_p95", "ms"),

	// Latency by op kind, as the single traced client saw it.
	lower("op.snapshot_p50_ms", "ms"),
	lower("op.snapshot_p95_ms", "ms"),
	lower("op.node_p50_ms", "ms"),
	lower("op.node_p99_ms", "ms"),
	lower("op.history_p50_ms", "ms"),
	lower("op.changetimes_p50_ms", "ms"),
	lower("op.khop1_p50_ms", "ms"),
	lower("op.khop1_p95_ms", "ms"),
	lower("op.khop2_p50_ms", "ms"),
	lower("op.http_p95_ms", "ms"), // serve_http phase B, from due time

	higher("trace.overhead_ratio", "ratio"),
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func workloadSpecs() []workloadSpec {
	out := make([]workloadSpec, len(workloads))
	for i, w := range workloads {
		out[i] = workloadSpec{w.name, w.why}
	}
	return out
}

// specJSON renders BENCHMARK.json.
func specJSON() string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   workloadSpecs(),
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	}); err != nil {
		panic(err)
	}
	return b.String()
}
