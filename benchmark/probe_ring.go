package main

import "hgs/internal/ring"

// probeRing times one placement lookup on the benchmark's cluster shape:
// 3 nodes x 64 virtual nodes, 2 replicas.
func probeRing(m metrics) {
	r := ring.New([]int{0, 1, 2}, 64, 2)
	var buf [4]int
	h := uint64(0x9e3779b97f4a7c15)
	m["ring.lookup_ns"], _ = perCall(minProbeIters, func() {
		r.Lookup(h, buf[:])
		h += 0x9e3779b97f4a7c15
	})
}
