package fetch

import (
	"testing"

	"hgs/internal/codec"
	"hgs/internal/delta"
	"hgs/internal/graph"
)

// Layer microbenchmarks of the fetch half of the read path:
//
//	go test ./internal/fetch -run '^$' -bench . -benchmem
//
// The fixture is one timespan slice shaped like a snapshot read: per
// horizontal partition a root-to-leaf path of benchPath tree deltas and
// one boundary eventlist, each split into benchPIDs parts.
const (
	benchSIDs  = 4
	benchPath  = 3
	benchPIDs  = 8
	benchNodes = 16 // nodes per micro-delta
	benchEvs   = 32 // events per micro-eventlist
)

func benchStore(b *testing.B) *fakeStore {
	st := newFakeStore()
	for sid := 0; sid < benchSIDs; sid++ {
		for pid := 0; pid < benchPIDs; pid++ {
			for did := 0; did < benchPath; did++ {
				d := delta.New()
				for i := 0; i < benchNodes; i++ {
					d.Put(graph.NewNodeState(graph.NodeID(pid*benchNodes + i)))
				}
				st.rows[PartKey{TableDeltas, 0, sid, did, pid}.keyRef()] = encDelta(b, d)
			}
			st.rows[PartKey{TableEvents, 0, sid, 0, pid}.keyRef()] = encPart(b, Part{Events: mkEvents(pid, benchEvs)})
		}
	}
	return st
}

// snapshotPlan requests every path delta group and the boundary
// eventlist group of every horizontal partition.
func snapshotPlan() *Plan {
	p := NewPlan()
	for sid := 0; sid < benchSIDs; sid++ {
		for did := 0; did < benchPath; did++ {
			p.DeltaGroup(0, sid, did)
		}
		p.Group(TableEvents, 0, sid, 0)
	}
	return p
}

// BenchmarkCacheGroupHit is one warm group lookup.
func BenchmarkCacheGroupHit(b *testing.B) {
	ex := NewExecutor(benchStore(b), codec.Codec{}, NewCache(64<<20))
	if _, err := ex.Exec(snapshotPlan(), 1); err != nil {
		b.Fatal(err)
	}
	k := GroupKey{TableDeltas, 0, 1, 1}
	c := ex.Cache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Group(k); !ok {
			b.Fatal("warm group missed")
		}
	}
}

// BenchmarkExecWarmSnapshot executes the snapshot-shaped plan with every
// group cache-resident: no store round, no decode.
func BenchmarkExecWarmSnapshot(b *testing.B) {
	ex := NewExecutor(benchStore(b), codec.Codec{}, NewCache(64<<20))
	plan := snapshotPlan()
	if _, err := ex.Exec(plan, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Exec(plan, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecColdMicroPartition executes one micro-partition's plan —
// its path micro-deltas, one of them absent, and its boundary
// micro-eventlist — against an empty cache: every part is a store read,
// a decode and a cache install (or a negative marker).
func BenchmarkExecColdMicroPartition(b *testing.B) {
	st := benchStore(b)
	plan := NewPlan()
	for did := 0; did <= benchPath; did++ { // did benchPath is not stored
		plan.Part(TableDeltas, 0, 1, did, 2)
	}
	plan.Part(TableEvents, 0, 1, 0, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewExecutor(st, codec.Codec{}, NewCache(64<<20)).Exec(plan, 1); err != nil {
			b.Fatal(err)
		}
	}
}
