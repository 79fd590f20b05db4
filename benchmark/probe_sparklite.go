package main

import "hgs/internal/sparklite"

// probeSparklite times a Map + Collect over 2 workers with a trivial
// function: the framework's own cost per item under every TAF operator.
func probeSparklite(m metrics) {
	items := make([]int, 20000)
	ctx := sparklite.NewContext(2)
	ns, _ := perCall(minProbeIters/len(items)+1, func() {
		sparklite.Map(sparklite.Parallelize(ctx, items, 4), func(x int) int { return x + 1 }).Collect()
	})
	m["sparklite.map_ns_per_item"] = ns / float64(len(items))
}
