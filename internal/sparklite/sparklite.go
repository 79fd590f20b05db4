// Package sparklite is the in-process stand-in for Apache Spark that the
// Temporal Graph Analysis Framework executes on (paper §5.2): a lazy,
// partitioned, immutable collection (RDD) with narrow transformations
// (map, filter) and actions (collect, partitions, count, foreach),
// scheduled over a fixed pool of workers. The worker count is the "Spark
// cluster size" axis of the paper's Figure 15c. Context.Run is the
// scheduler itself, one task per index on the workers and a barrier at
// the end: every action runs on it, and so do stateful stages that keep
// per-partition state between tasks, such as the TAF's forward replay,
// which advances one graph per partition at each timepoint.
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

// Run calls task(i) for every i in [0, n) on the context's workers and
// returns once every call has returned. Calls run concurrently, each
// index on one worker, unless there is one worker or one task: then
// they run in order on the calling goroutine.
func (c *Context) Run(n int, task func(i int)) {
	w := min(c.workers, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				task(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// runPartitions evaluates every partition on the worker pool and hands
// each result to sink (called concurrently).
func runPartitions[T any](r *RDD[T], sink func(p int, data []T)) {
	r.ctx.Run(r.parts, func(p int) { sink(p, r.materialize(p)) })
}

// Partitions evaluates the RDD and returns its elements partition by
// partition (Spark's glom().collect()).
func (r *RDD[T]) Partitions() [][]T {
	parts := make([][]T, r.parts)
	runPartitions(r, func(p int, data []T) { parts[p] = data })
	return parts
}

// Collect evaluates the RDD and returns all elements in partition order.
func (r *RDD[T]) Collect() []T {
	var out []T
	for _, d := range r.Partitions() {
		out = append(out, d...)
	}
	return out
}

// Count returns the number of elements.
func (r *RDD[T]) Count() int {
	total := 0
	for _, d := range r.Partitions() {
		total += len(d)
	}
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
