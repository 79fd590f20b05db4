package sparklite

import (
	"sort"
	"sync/atomic"
	"testing"
)

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizeCollect(t *testing.T) {
	ctx := NewContext(4)
	r := Parallelize(ctx, ints(100), 7)
	if r.NumPartitions() != 7 {
		t.Fatalf("partitions = %d", r.NumPartitions())
	}
	got := r.Collect()
	if len(got) != 100 {
		t.Fatalf("collected %d", len(got))
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("missing element %d", i)
		}
	}
}

func TestMapFilterCount(t *testing.T) {
	ctx := NewContext(3)
	r := Parallelize(ctx, ints(50), 5)
	sq := Map(r, func(x int) int { return x * x })
	even := sq.Filter(func(x int) bool { return x%2 == 0 })
	if got := even.Count(); got != 25 {
		t.Fatalf("Count = %d, want 25", got)
	}
}

func TestForeachVisitsAll(t *testing.T) {
	ctx := NewContext(4)
	r := Parallelize(ctx, ints(200), 9)
	var n atomic.Int64
	r.Foreach(func(int) { n.Add(1) })
	if n.Load() != 200 {
		t.Fatalf("visited %d", n.Load())
	}
}

func TestCacheComputesOnce(t *testing.T) {
	ctx := NewContext(2)
	var calls atomic.Int64
	r := Parallelize(ctx, ints(10), 2)
	mapped := Map(r, func(x int) int {
		calls.Add(1)
		return x
	}).Cache()
	mapped.Count()
	mapped.Count()
	mapped.Collect()
	if calls.Load() != 10 {
		t.Fatalf("map called %d times, want 10 (cached)", calls.Load())
	}
}

func TestFromPartitionsPreservesLayout(t *testing.T) {
	ctx := NewContext(2)
	r := FromPartitions(ctx, [][]string{{"a", "b"}, {"c"}, nil})
	if r.NumPartitions() != 3 {
		t.Fatalf("partitions = %d", r.NumPartitions())
	}
	got := r.Collect()
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("collect = %v", got)
	}
}

func TestEmptyRDD(t *testing.T) {
	ctx := NewContext(2)
	r := FromPartitions[int](ctx, nil)
	if r.Count() != 0 {
		t.Fatal("empty RDD should count 0")
	}
}

func TestContextDefaults(t *testing.T) {
	if NewContext(0).Workers() < 1 {
		t.Fatal("default workers must be positive")
	}
	if NewContext(5).Workers() != 5 {
		t.Fatal("explicit workers not honored")
	}
}

func TestChainedLaziness(t *testing.T) {
	// Transformations alone must not evaluate anything.
	ctx := NewContext(2)
	var calls atomic.Int64
	r := Parallelize(ctx, ints(10), 2)
	m := Map(r, func(x int) int { calls.Add(1); return x })
	_ = m.Filter(func(x int) bool { return true })
	if calls.Load() != 0 {
		t.Fatal("transformation should be lazy")
	}
}
