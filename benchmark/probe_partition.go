package main

import (
	"hgs/internal/graph"
	"hgs/internal/partition"
)

// probePartition times the stateless node -> micro-partition hash that
// every build, append and point read computes per node.
func probePartition(m metrics) {
	id := graph.NodeID(0)
	m["partition.hash_pid_ns"], _ = perCall(minProbeIters, func() {
		partition.HashPID(id, 500)
		id++
	})
}
