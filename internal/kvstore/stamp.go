package kvstore

// The per-key version stamp behind quorum reads, read-repair and
// anti-entropy. Every value the cluster stores is wrapped in a small
// envelope carrying a cluster-wide monotone sequence stamp:
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

import "encoding/binary"

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
