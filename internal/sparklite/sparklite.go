// Package sparklite is the in-process stand-in for Apache Spark that the
// Temporal Graph Analysis Framework executes on (paper §5.2): a lazy,
// partitioned, immutable collection (RDD) with narrow transformations
// (map, filter) and actions (collect, count, foreach), scheduled over a
// fixed pool of workers. The worker count is the "Spark cluster size"
// axis of the paper's Figure 15c.
package sparklite

import (
	"runtime"
	"sync"
)

// Context owns the worker pool on which RDD actions execute.
type Context struct {
	workers int
}

// NewContext returns a context with the given parallelism; w < 1 uses
// GOMAXPROCS.
func NewContext(w int) *Context {
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Context{workers: w}
}

// Workers returns the pool size.
func (c *Context) Workers() int { return c.workers }

// RDD is a lazy distributed collection of T split into partitions.
// Transformations build new RDDs; actions evaluate partitions on the
// context's workers.
type RDD[T any] struct {
	ctx   *Context
	parts int
	// compute materializes one partition.
	compute func(p int) []T
	// cache, when non-nil, memoizes computed partitions.
	cache *rddCache[T]
}

type rddCache[T any] struct {
	once []sync.Once
	data [][]T
}

// Parallelize splits items into `parts` hash partitions (round-robin,
// preserving relative order within a partition).
func Parallelize[T any](ctx *Context, items []T, parts int) *RDD[T] {
	if parts < 1 {
		parts = ctx.workers
	}
	if parts < 1 {
		parts = 1
	}
	split := make([][]T, parts)
	for i, it := range items {
		split[i%parts] = append(split[i%parts], it)
	}
	return FromPartitions(ctx, split)
}

// FromPartitions wraps pre-partitioned data (e.g. per-horizontal-partition
// streams arriving from TGI query processors) without copying.
func FromPartitions[T any](ctx *Context, parts [][]T) *RDD[T] {
	if len(parts) == 0 {
		parts = [][]T{nil}
	}
	return &RDD[T]{
		ctx:     ctx,
		parts:   len(parts),
		compute: func(p int) []T { return parts[p] },
	}
}

// Context returns the RDD's execution context.
func (r *RDD[T]) Context() *Context { return r.ctx }

// NumPartitions returns the partition count.
func (r *RDD[T]) NumPartitions() int { return r.parts }

// materialize computes partition p, consulting the cache when enabled.
func (r *RDD[T]) materialize(p int) []T {
	if r.cache == nil {
		return r.compute(p)
	}
	r.cache.once[p].Do(func() { r.cache.data[p] = r.compute(p) })
	return r.cache.data[p]
}

// Cache memoizes partitions after first evaluation (Spark's persist).
func (r *RDD[T]) Cache() *RDD[T] {
	if r.cache == nil {
		r.cache = &rddCache[T]{once: make([]sync.Once, r.parts), data: make([][]T, r.parts)}
	}
	return r
}

// Map applies f to every element.
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	return &RDD[U]{
		ctx:   r.ctx,
		parts: r.parts,
		compute: func(p int) []U {
			in := r.materialize(p)
			out := make([]U, len(in))
			for i, v := range in {
				out[i] = f(v)
			}
			return out
		},
	}
}

// Filter keeps the elements satisfying pred.
func (r *RDD[T]) Filter(pred func(T) bool) *RDD[T] {
	return &RDD[T]{
		ctx:   r.ctx,
		parts: r.parts,
		compute: func(p int) []T {
			var out []T
			for _, v := range r.materialize(p) {
				if pred(v) {
					out = append(out, v)
				}
			}
			return out
		},
	}
}

// runPartitions evaluates every partition on the worker pool and hands
// each result to sink (called concurrently).
func runPartitions[T any](r *RDD[T], sink func(p int, data []T)) {
	w := min(r.ctx.workers, r.parts)
	if w <= 1 {
		for p := 0; p < r.parts; p++ {
			sink(p, r.materialize(p))
		}
		return
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				sink(p, r.materialize(p))
			}
		}()
	}
	for p := 0; p < r.parts; p++ {
		work <- p
	}
	close(work)
	wg.Wait()
}

// Collect evaluates the RDD and returns all elements in partition order.
func (r *RDD[T]) Collect() []T {
	parts := make([][]T, r.parts)
	runPartitions(r, func(p int, data []T) { parts[p] = data })
	var out []T
	for _, d := range parts {
		out = append(out, d...)
	}
	return out
}

// Count returns the number of elements.
func (r *RDD[T]) Count() int {
	var mu sync.Mutex
	total := 0
	runPartitions(r, func(_ int, data []T) {
		mu.Lock()
		total += len(data)
		mu.Unlock()
	})
	return total
}

// Foreach applies f to every element (f must be safe for concurrent
// calls across partitions).
func (r *RDD[T]) Foreach(f func(T)) {
	runPartitions(r, func(_ int, data []T) {
		for _, v := range data {
			f(v)
		}
	})
}
