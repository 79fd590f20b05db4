// Package taf implements the Temporal Graph Analysis Framework (paper
// §5): temporal nodes (NodeT) and subgraphs (SubgraphT), sets thereof
// (SoN, SoTS) as RDDs on the sparklite engine, and the temporal operator
// library — Selection, Timeslice, Graph, NodeCompute,
// NodeComputeTemporal, NodeComputeDelta, Compare, Evolution and the
// temporal aggregations.
package taf

import (
	"hgs/internal/core"
	"hgs/internal/sparklite"
)

// Handler connects the analytics engine to a Temporal Graph Index (the
// paper's TGIHandler): it carries the index connection and the cluster
// compute context.
type Handler struct {
	tgi *core.TGI
	ctx *sparklite.Context
}

// NewHandler builds a handler over an index and a compute context.
// Retrievals use the index's default parallel fetch factor.
func NewHandler(tgi *core.TGI, ctx *sparklite.Context) *Handler {
	return &Handler{tgi: tgi, ctx: ctx}
}
