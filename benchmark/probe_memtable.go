package main

import (
	"hgs/internal/backend"
	"hgs/internal/backend/memtable"
)

// engineCosts is what one storage engine costs per call on the harvested
// rows, timed on a standalone instance with no cluster above it.
type engineCosts struct {
	putNs, getNs, batchGetNsPerKey, scanNsPerRow float64
}

// probeEngine loads the rows into be (timing the puts), flushes, then
// times point reads, one batched read per 64 keys, and partition scans.
func probeEngine(be backend.Backend, rows []row) (engineCosts, error) {
	var c engineCosts
	if len(rows) == 0 {
		return c, nil
	}
	i := 0
	next := func() row { r := rows[i%len(rows)]; i++; return r }
	c.putNs, _ = perCall(max(minProbeIters, len(rows)), func() {
		r := next()
		be.Put(r.table, r.pkey, r.ckey, r.value)
	})
	if err := be.Flush(); err != nil {
		return c, err
	}
	c.getNs, _ = perCall(minProbeIters, func() {
		r := next()
		be.Get(r.table, r.pkey, r.ckey)
	})
	reqs := make([]backend.KeyRead, 0, 64)
	for _, r := range rows[:min(64, len(rows))] {
		reqs = append(reqs, backend.KeyRead{Table: r.table, PKey: r.pkey, CKey: r.ckey})
	}
	ns, _ := perCall(minProbeIters/len(reqs)+1, func() { backend.MultiGet(be, reqs) })
	c.batchGetNsPerKey = ns / float64(len(reqs))
	scanned, calls := 0, 0
	ns, _ = perCall(20, func() {
		r := next()
		scanned += len(be.ScanPrefix(r.table, r.pkey, ""))
		calls++
	})
	if scanned > 0 {
		c.scanNsPerRow = ns * float64(calls) / float64(scanned)
	}
	return c, nil
}

func probeMemtable(h *harvest, m metrics) error {
	c, err := probeEngine(memtable.New(), h.all())
	m["backend.memtable.put_ns"] = c.putNs
	m["backend.memtable.get_ns"] = c.getNs
	m["backend.memtable.scan_ns_per_row"] = c.scanNsPerRow
	return err
}
