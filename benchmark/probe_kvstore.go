package main

import (
	"hgs/internal/fetch"
	"hgs/internal/kvstore"
)

// row is one stored row, addressed as the cluster addresses it.
type row struct {
	table, pkey, ckey string
	value             []byte
}

// harvest is the probes' payload: rows read back from the workload's own
// store, so every probe times its layer on the data that workload made.
type harvest struct {
	deltas []row // micro-deltas
	events []row // micro-eventlists
}

func (h *harvest) all() []row { return append(append([]row(nil), h.deltas...), h.events...) }

// harvestRows scans partitions of the deltas and events tables, spread
// over the key space, until it holds up to max rows of each.
func harvestRows(c *kvstore.Cluster, max int) *harvest {
	take := func(table string) []row {
		pkeys := c.PartitionKeys(table)
		var out []row
		for i := 0; i < len(pkeys) && len(out) < max; i++ {
			// Visit partitions in a stride so early and late timespans both appear.
			pk := pkeys[(i*7)%len(pkeys)]
			for _, r := range c.ScanPartition(table, pk) {
				if len(out) == max {
					break
				}
				out = append(out, row{table, pk, r.CKey, r.Value})
			}
		}
		return out
	}
	return &harvest{deltas: take(fetch.TableDeltas), events: take(fetch.TableEvents)}
}

// probeKVStore times the cluster's read calls on the workload's own
// cluster (routing, replica choice, stamp unwrapping and the engine under
// it), and its write call on a scratch memtable cluster of the same shape,
// so the measured store is not written to.
func probeKVStore(c *kvstore.Cluster, h *harvest, m metrics) {
	rows := h.all()
	if len(rows) == 0 {
		return
	}
	i := 0
	m["kvstore.get_ns"], _ = perCall(minProbeIters, func() {
		r := rows[i%len(rows)]
		c.Get(r.table, r.pkey, r.ckey)
		i++
	})
	refs := make([]kvstore.KeyRef, 0, 64)
	for _, r := range rows[:min(64, len(rows))] {
		refs = append(refs, kvstore.KeyRef{Table: r.table, PKey: r.pkey, CKey: r.ckey})
	}
	ns, _ := perCall(minProbeIters/len(refs)+1, func() { c.MultiGet(refs) })
	m["kvstore.multiget_ns_per_key"] = ns / float64(len(refs))

	scanned, calls := 0, 0
	ns, _ = perCall(20, func() {
		r := rows[i%len(rows)]
		scanned += len(c.ScanPartition(r.table, r.pkey))
		calls++
		i++
	})
	if scanned > 0 {
		m["kvstore.scan_ns_per_row"] = ns * float64(calls) / float64(scanned)
	}

	scratch := kvstore.NewCluster(kvstore.Config{Machines: 3, Replication: 2})
	defer scratch.Close()
	m["kvstore.put_ns"], _ = perCall(minProbeIters, func() {
		r := rows[i%len(rows)]
		scratch.Put(r.table, r.pkey, r.ckey, r.value)
		i++
	})
}
