package kvstore

import "hgs/internal/obs"

// RegisterObs registers the cluster's counters into r as func-backed
// metric families, sampled at exposition/snapshot time: the logical
// operation counters (reads, writes, bytes, round-trips, modelled
// wait) and the per-tier counters aggregated from the node engines.
// Every counter family reads the same monotone totals Metrics does.
// Registering the same cluster again (a re-attached handle) replaces
// the samplers.
func (c *Cluster) RegisterObs(r *obs.Registry) {
	if c == nil || r == nil {
		return
	}
	r.CounterFunc("hgs_kv_reads_total",
		"Logical KV read operations (one per key or prefix scan, even inside a batch).",
		func() float64 { return float64(c.reads.Load()) })
	r.CounterFunc("hgs_kv_writes_total",
		"Logical KV write operations.",
		func() float64 { return float64(c.writes.Load()) })
	r.CounterFunc("hgs_kv_read_bytes_total",
		"Value bytes moved by KV reads.",
		func() float64 { return float64(c.bytesRead.Load()) })
	r.CounterFunc("hgs_kv_written_bytes_total",
		"Value bytes moved by KV writes.",
		func() float64 { return float64(c.bytesWritten.Load()) })
	r.CounterFunc("hgs_kv_round_trips_total",
		"Physical storage-node visits (one per machine per batched call).",
		func() float64 { return float64(c.roundTrips.Load()) })
	r.CounterFunc("hgs_kv_simwait_seconds_total",
		"Modelled storage service time charged by the latency model (a clock; nothing waits).",
		func() float64 { return float64(c.simWait.Load()) / 1e9 })
	r.GaugeFunc("hgs_kv_stored_bytes",
		"Physical bytes currently stored across all replicas.",
		func() float64 { return float64(c.StoredBytes()) })
	r.GaugeFunc("hgs_kv_machines",
		"Storage nodes currently in the cluster.",
		func() float64 { return float64(c.Machines()) })

	r.CounterFunc("hgs_kv_failovers_total",
		"Replica visits that failed during reads (node down or injected fault).",
		func() float64 { return float64(c.failovers.Load()) })
	r.CounterFunc("hgs_kv_degraded_reads_total",
		"Reads answered by a replica other than the rotation-preferred one.",
		func() float64 { return float64(c.degradedReads.Load()) })
	r.CounterFunc("hgs_kv_under_replicated_writes_total",
		"Logical writes that reached fewer live replicas than the replication factor.",
		func() float64 { return float64(c.underRepWrites.Load()) })
	r.CounterFunc("hgs_kv_hinted_writes_total",
		"Per-replica mutations queued as hinted handoff for a down node.",
		func() float64 { return float64(c.hintedWrites.Load()) })
	r.CounterFunc("hgs_kv_read_repairs_total",
		"Rows rewritten on a stale replica after a quorum read observed divergence.",
		func() float64 { return float64(c.readRepairs.Load()) })
	r.GaugeFunc("hgs_kv_pending_repairs",
		"Read-repair tasks queued but not yet applied.",
		func() float64 { return float64(c.pendingRepairs.Load()) })
	r.CounterFunc("hgs_kv_antientropy_runs_total",
		"Anti-entropy sweeps completed.",
		func() float64 { return float64(c.aeRuns.Load()) })
	r.CounterFunc("hgs_kv_antientropy_partitions_total",
		"Partitions found divergent and converged by anti-entropy.",
		func() float64 { return float64(c.aeParts.Load()) })
	r.CounterFunc("hgs_kv_antientropy_rows_total",
		"Rows streamed between replicas by anti-entropy repair.",
		func() float64 { return float64(c.aeRows.Load()) })
	r.CounterFunc("hgs_kv_antientropy_bytes_total",
		"Bytes streamed between replicas by anti-entropy repair.",
		func() float64 { return float64(c.aeBytes.Load()) })

	r.GaugeFunc("hgs_ring_nodes",
		"Nodes on the placement ring.",
		func() float64 { return float64(c.Machines()) })
	r.GaugeFunc("hgs_ring_nodes_down",
		"Nodes currently marked failed.",
		func() float64 {
			down := 0
			for _, n := range c.nodeList() {
				if n.down.Load() {
					down++
				}
			}
			return float64(down)
		})
	r.GaugeFunc("hgs_ring_rebalance_active",
		"1 while a background topology migration is streaming.",
		func() float64 {
			if c.Rebalancing() {
				return 1
			}
			return 0
		})
	r.CounterFunc("hgs_ring_rebalances_total",
		"Topology changes (node add/remove) started.",
		func() float64 { return float64(c.rebalances.Load()) })
	r.CounterFunc("hgs_ring_rebalanced_partitions_total",
		"Partitions streamed to new owners by the rebalancer.",
		func() float64 { return float64(c.rebalancedParts.Load()) })
	r.CounterFunc("hgs_ring_rebalanced_rows_total",
		"Rows streamed to new owners by the rebalancer.",
		func() float64 { return float64(c.rebalancedRows.Load()) })
	r.CounterFunc("hgs_ring_rebalanced_bytes_total",
		"Bytes streamed to new owners by the rebalancer.",
		func() float64 { return float64(c.rebalancedBytes.Load()) })

	r.CounterFunc("hgs_tier_hot_reads_total",
		"Row lookups of disk engines served from values resident in memory.",
		func() float64 { return float64(c.tierTotals().HotHits) })
	r.CounterFunc("hgs_tier_cold_reads_total",
		"Row lookups of disk engines read from disk.",
		func() float64 { return float64(c.tierTotals().ColdReads) })
	r.CounterFunc("hgs_tier_flushed_bytes_total",
		"Value bytes written to disk by disk engines.",
		func() float64 { return float64(c.tierTotals().FlushedBytes) })
	r.CounterFunc("hgs_tier_compactions_total",
		"Log compactions of disk engines.",
		func() float64 { return float64(c.tierTotals().Compactions) })
	r.GaugeFunc("hgs_tier_hot_bytes",
		"Value bytes currently resident in memory in disk engines.",
		func() float64 { return float64(c.tierTotals().HotBytes) })
}
