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

// TestRunCallsEveryIndexOnce runs tasks on pools smaller than, equal to
// and larger than the task count, and requires every index to run exactly
// once before Run returns.
func TestRunCallsEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 3, 8} {
		for _, n := range []int{0, 1, 3, 10} {
			calls := make([]atomic.Int64, n)
			NewContext(w).Run(n, func(i int) { calls[i].Add(1) })
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("workers %d, %d tasks: task %d ran %d times", w, n, i, c)
				}
			}
		}
	}
}

func TestPartitionsKeepBoundaries(t *testing.T) {
	r := Map(FromPartitions(NewContext(2), [][]int{{1, 2}, nil, {3}}), func(x int) int { return 10 * x })
	got := r.Partitions()
	if len(got) != 3 || len(got[0]) != 2 || len(got[1]) != 0 || len(got[2]) != 1 || got[0][1] != 20 || got[2][0] != 30 {
		t.Fatalf("partitions = %v", got)
	}
}
