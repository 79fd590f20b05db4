package kvstore

// The per-key version stamp behind quorum reads, read-repair,
// rebalance handoff and anti-entropy, and the two places it decides:
// the newest-per-key merge of replica copies (newestRows) and the stamp
// guard every background write goes through (putIfNewer). Every value
// the cluster stores is wrapped in a small envelope carrying a
// cluster-wide monotone sequence stamp:
//
//	[0xFE][8-byte big-endian stamp][payload]
//
// The stamp travels with the row through every path that moves stored
// bytes — hinted handoff, rebalance streaming, backup/restore — so any
// two copies of a row can be ordered without a sidecar table. The
// counter is seeded from the wall clock at Open (nanoseconds), which
// keeps stamps monotone across process restarts without scanning the
// engines for the previous maximum.
//
// The tag byte 0xFE cannot collide with any payload the store has ever
// written unwrapped: codec-framed blobs start with a 0x00/0x01 flag,
// and the metadata tables store ASCII. A value without the tag reads
// as stamp 0 — pre-envelope rows order before every stamped write.

import (
	"bytes"
	"encoding/binary"
	"sort"

	"hgs/internal/backend"
)

const (
	stampTag      = 0xFE
	stampOverhead = 9
)

// wrapStamp copies value into a fresh stamped envelope.
func wrapStamp(stamp uint64, value []byte) []byte {
	out := make([]byte, stampOverhead+len(value))
	out[0] = stampTag
	binary.BigEndian.PutUint64(out[1:9], stamp)
	copy(out[stampOverhead:], value)
	return out
}

// splitStamp splits a stored value into its stamp and payload. The
// payload aliases stored (backends return caller-owned copies, so the
// alias is safe to hand out).
func splitStamp(stored []byte) (uint64, []byte) {
	if len(stored) >= stampOverhead && stored[0] == stampTag {
		return binary.BigEndian.Uint64(stored[1:9]), stored[stampOverhead:]
	}
	return 0, stored
}

// stampOf returns just the stamp of a stored value.
func stampOf(stored []byte) uint64 {
	s, _ := splitStamp(stored)
	return s
}

// newerThan orders two stored versions: the higher stamp wins, and a
// stamp tie (only possible for pre-envelope rows, which all read as
// stamp 0) breaks by byte order so equal-stamp divergence still
// converges to one deterministic winner everywhere.
func newerThan(a, b []byte) bool {
	sa, sb := stampOf(a), stampOf(b)
	if sa != sb {
		return sa > sb
	}
	return bytes.Compare(a, b) > 0
}

// putIfNewer is the stamp guard: it stores v unless the engine already
// holds a version at least as new, judged against the row present now
// (the caller holds the node's service lock), and reports whether it
// wrote. Hint replay, quorum-write tails, read-repair and the
// convergence step all write through it, so none of them can roll back
// a row that landed after they read.
func putIfNewer(be backend.Backend, table, pkey, ckey string, v []byte) bool {
	if cur, ok := be.Get(table, pkey, ckey); ok && !newerThan(v, cur) {
		return false
	}
	be.Put(table, pkey, ckey, v)
	return true
}

// newestRows merges replicas' copies of one partition (or prefix) into
// the newest version of each clustering key, in clustering order. A key
// present on one copy and absent on another merges as present: the
// store keeps no tombstones. One copy is returned as is.
func newestRows(copies []scanResp) []Row {
	if len(copies) == 1 {
		return copies[0].rows
	}
	at := make(map[string]int)
	var out []Row
	for _, cp := range copies {
		for _, r := range cp.rows {
			if j, ok := at[r.CKey]; !ok {
				at[r.CKey] = len(out)
				out = append(out, r)
			} else if newerThan(r.Value, out[j].Value) {
				out[j] = r
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CKey < out[j].CKey })
	return out
}

// unwrapRows strips the stamp envelope from every row in place (the
// rows are engine-returned copies) and returns the total payload byte
// count — what the logical byte counters charge.
func unwrapRows(rows []Row) int {
	total := 0
	for i := range rows {
		_, v := splitStamp(rows[i].Value)
		rows[i].Value = v
		total += len(v)
	}
	return total
}

// rowBytes returns the stored (stamped) byte count of rows — what the
// service-time model charges for moving them.
func rowBytes(rows []Row) int {
	total := 0
	for _, r := range rows {
		total += len(r.Value)
	}
	return total
}
