// Package fetch is the unified retrieval layer of the Temporal Graph
// Index: the query-manager half that turns a logical retrieval into a
// deduplicated read plan, and the executor half that runs the plan with
// batched key-value reads and a cache of decoded parts (paper Figure
// 3c).
//
// A retrieval site builds a Plan naming what it needs in logical
// coordinates — whole groups (every micro-partition of one tree delta or
// one boundary eventlist), single parts, raw point reads and prefix
// scans — with duplicates collapsed as they are added. Micro-deltas and
// micro-eventlists are one kind of request and one kind of cached entry
// (a Part: pid plus decoded value); only the row's table decides its key
// shape and decoder, as deltas and eventlists are two edge kinds of one
// hierarchy in DeltaGraph. The Executor serves those requests out of a
// bytes-bounded segmented LRU of decoded parts and issues the rest as
// kvstore batched gets and scans, paying one simulated network
// round-trip per storage node instead of one per key. Hot root-path
// deltas and boundary eventlists, which every snapshot and
// micro-partition fetch of a timespan shares ("Efficient Snapshot
// Retrieval over Historical Graph Data", Khurana & Deshpande), are
// therefore decoded once and shared across queries and analytics
// workers.
package fetch

import (
	"fmt"
	"strconv"

	"hgs/internal/graph"
)

// Table names in the backing store: the paper's five Cassandra tables
// (Deltas, Versions, Timespans, Graph, Micropartitions), with eventlists
// split out of Deltas into their own table for clearer key spaces, plus
// two auxiliary tables for 1-hop replication. The fetch layer owns the
// key schema; internal/core re-exports these names.
const (
	TableDeltas    = "deltas"    // micro-deltas of snapshots/derived snapshots
	TableEvents    = "events"    // micro-eventlists
	TableVersions  = "versions"  // per-node version chains
	TableTimespans = "timespans" // per-timespan metadata
	TableGraph     = "graph"     // global graph metadata
	TableMicroPart = "micropart" // node→pid maps (locality partitioning)
	TableAux       = "aux"       // 1-hop replication: frontier micro-deltas
	TableAuxEvents = "auxevents" // 1-hop replication: frontier micro-eventlists
)

// Key helpers — composite delta keys {tsid, sid, did, pid} with placement
// key {tsid, sid} (paper §4.4 items 3–5). Fixed-width decimal components
// keep clustering order equal to numeric order.

// PlacementKey is the partition key of every row of one (timespan,
// horizontal partition) pair.
func PlacementKey(tsid, sid int) string { return fmt.Sprintf("t%05d/s%03d", tsid, sid) }

// DeltaCKey is the clustering key of one micro-delta.
func DeltaCKey(did, pid int) string { return fmt.Sprintf("d%05d/p%05d", did, pid) }

// DeltaPrefix covers every micro-delta of one tree delta.
func DeltaPrefix(did int) string { return fmt.Sprintf("d%05d/", did) }

// EventCKey is the clustering key of one micro-eventlist.
func EventCKey(el, pid int) string { return fmt.Sprintf("e%05d/p%05d", el, pid) }

// EventPrefix covers every micro-eventlist of one eventlist.
func EventPrefix(el int) string { return fmt.Sprintf("e%05d/", el) }

// NodeCKey is the clustering key of per-node rows (version chains,
// micro-partition maps).
func NodeCKey(id graph.NodeID) string { return fmt.Sprintf("n%020d", uint64(id)) }

// parsePID extracts the micro-partition id from a delta or eventlist
// clustering key ("d00003/p00017" → 17).
func parsePID(ckey string) (int, error) {
	i := len(ckey) - 1
	for i >= 0 && ckey[i] != 'p' {
		i--
	}
	if i < 0 {
		return 0, fmt.Errorf("fetch: malformed micro-partition clustering key %q", ckey)
	}
	pid, err := strconv.Atoi(ckey[i+1:])
	if err != nil {
		return 0, fmt.Errorf("fetch: malformed micro-partition clustering key %q: %w", ckey, err)
	}
	return pid, nil
}
