package main

import (
	"fmt"

	"hgs/internal/codec"
	"hgs/internal/fetch"
	"hgs/internal/kvstore"
)

// probeFetch times the executor on a plan of the delta groups the harvest
// came from, against the workload's own cluster: cold (a fresh cache each
// time, so every key is a store read, a decode and a cache install) and
// warm (every key a cache hit), and a bare cache lookup.
func probeFetch(c *kvstore.Cluster, h *harvest, m metrics) error {
	seen := make(map[fetch.GroupKey]bool)
	var groups []fetch.GroupKey
	for _, r := range h.deltas {
		k := fetch.GroupKey{Table: fetch.TableDeltas}
		var pid int
		if _, err := fmt.Sscanf(r.pkey, "t%d/s%d", &k.TSID, &k.SID); err != nil {
			return fmt.Errorf("fetch probe: placement key %q: %w", r.pkey, err)
		}
		if _, err := fmt.Sscanf(r.ckey, "d%d/p%d", &k.DID, &pid); err != nil {
			return fmt.Errorf("fetch probe: clustering key %q: %w", r.ckey, err)
		}
		if !seen[k] && len(groups) < 40 {
			seen[k] = true
			groups = append(groups, k)
		}
	}
	if len(groups) == 0 {
		return nil
	}
	plan := fetch.NewPlan()
	for _, k := range groups {
		plan.DeltaGroup(k.TSID, k.SID, k.DID)
	}
	n := float64(len(groups))
	var execErr error
	exec := func(x *fetch.Executor) {
		if _, err := x.Exec(plan, 1); err != nil {
			execErr = err
		}
	}
	ns, _ := perCall(minProbeIters/len(groups)+1, func() {
		exec(fetch.NewExecutor(c, codec.Codec{}, fetch.NewCache(64<<20)))
	})
	m["fetch.exec_cold_ns_per_key"] = ns / n

	warm := fetch.NewExecutor(c, codec.Codec{}, fetch.NewCache(64<<20))
	ns, _ = perCall(minProbeIters/len(groups)+1, func() { exec(warm) })
	m["fetch.exec_warm_ns_per_key"] = ns / n

	i := 0
	m["fetch.cache_lookup_ns"], _ = perCall(minProbeIters, func() {
		warm.Cache().Group(groups[i%len(groups)])
		i++
	})
	return execErr
}
