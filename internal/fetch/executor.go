package fetch

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"hgs/internal/codec"
	"hgs/internal/kvstore"
)

// partsByPID sorts a decoded group and its parallel size slice together.
type partsByPID struct {
	parts []Part
	sizes []int64
}

func (p *partsByPID) Len() int           { return len(p.parts) }
func (p *partsByPID) Less(i, j int) bool { return p.parts[i].PID < p.parts[j].PID }
func (p *partsByPID) Swap(i, j int) {
	p.parts[i], p.parts[j] = p.parts[j], p.parts[i]
	p.sizes[i], p.sizes[j] = p.sizes[j], p.sizes[i]
}

// execScratch holds the per-execution request-building slices. They are
// sync.Pool-recycled on executor completion: the executor allocates
// them fresh for every retrieval otherwise, and at high QPS that churn
// is pure GC pressure (the slices never escape into results — refs are
// copied by value into result map keys).
type execScratch struct {
	missGroups []GroupKey
	missParts  []PartKey
	scanRefs   []kvstore.ScanRef
	getRefs    []kvstore.KeyRef
}

var scratchPool = sync.Pool{New: func() any { return &execScratch{} }}

func getScratch() *execScratch {
	s := scratchPool.Get().(*execScratch)
	s.missGroups = s.missGroups[:0]
	s.missParts = s.missParts[:0]
	s.scanRefs = s.scanRefs[:0]
	s.getRefs = s.getRefs[:0]
	return s
}

// Store is the batched read surface the executor runs plans against;
// *kvstore.Cluster implements it. Both calls answer positionally, stop
// visiting storage nodes once ctx is cancelled (the results are then
// incomplete), and return the exact logical reads, round-trips, bytes
// and modelled wait the call charged, which fill per-query plan
// traces.
type Store interface {
	MultiGetStatsCtx(ctx context.Context, refs []kvstore.KeyRef) ([]kvstore.GetResult, kvstore.CallStats)
	MultiScanStatsCtx(ctx context.Context, refs []kvstore.ScanRef) ([][]kvstore.Row, kvstore.CallStats)
}

// Executor runs read plans: group and part requests are served from the
// decoded cache when resident, everything else goes to the store as one
// batched round (a batched scan and a batched get issued concurrently,
// each charging one modelled round-trip per storage node touched).
// Freshly decoded parts are installed in the cache on the way out; point
// reads that found nothing install negative markers so the next probe of
// the same absent row skips the store.
type Executor struct {
	store Store
	cdc   codec.Codec
	cache *Cache
}

// NewExecutor builds an executor over a store; cache may be nil
// (caching disabled).
func NewExecutor(store Store, cdc codec.Codec, cache *Cache) *Executor {
	return &Executor{store: store, cdc: cdc, cache: cache}
}

// Cache returns the executor's decoded-part cache (nil when disabled).
func (e *Executor) Cache() *Cache { return e.cache }

// ParallelCtx runs f(0..n-1) with up to clients concurrent workers (the
// paper's query processors), returning the first error. It is the one
// bounded worker pool of the fetch path; core's retrieval sites drive
// their decode/merge tasks through it too. Cancellation is checked at
// task boundaries: no new task starts once ctx is done, workers drain
// without running the items already queued, and every worker goroutine
// has exited by return. A task in flight when cancellation arrives
// finishes (the unit of work is one partition's decode or merge —
// bounded, so returns stay prompt); the first error wins, with
// ctx.Err() reported when no task failed first.
func ParallelCtx(ctx context.Context, clients, n int, f func(i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if clients > n {
		clients = n
	}
	if clients <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		next     = make(chan int)
	)
	done := ctx.Done()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // drain without working
				}
				if err := f(i); err != nil {
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-done:
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// Exec runs the plan. clients bounds the decode parallelism (the paper's
// query-processor count c); the store round is internally parallel per
// node regardless. The returned parts are shared with the cache — see
// Result.
func (e *Executor) Exec(p *Plan, clients int) (*Result, error) {
	return e.ExecCtx(context.Background(), p, clients, nil)
}

// ExecCtx runs the plan like Exec under a context, additionally folding
// the execution's plan/cache/read breakdown into tr (nil records
// nothing): the batched store round stops visiting nodes once ctx is
// cancelled, decode work stops at partition boundaries, and —
// critically — a round cut short by cancellation installs NOTHING in
// the cache: a skipped node visit leaves zero-valued results
// indistinguishable from genuine absence, and admitting those as
// negative markers would poison every later query with phantom "row
// does not exist" answers.
func (e *Executor) ExecCtx(ctx context.Context, p *Plan, clients int, tr *Trace) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if clients < 1 {
		clients = 1
	}
	tr.addPlanned(len(p.groups), len(p.parts), len(p.gets), len(p.scans))
	res := &Result{
		groups: make(map[GroupKey][]Part, len(p.groups)),
		parts:  make(map[PartKey]Part, len(p.parts)),
		gets:   make(map[kvstore.KeyRef][]byte, len(p.gets)),
		scans:  make(map[kvstore.ScanRef][]kvstore.Row, len(p.scans)),
		shared: e.cache != nil,
	}
	scratch := getScratch()
	defer scratchPool.Put(scratch)

	// 1. Serve group and part requests out of the cache.
	missGroups := scratch.missGroups
	for _, k := range p.groups {
		if parts, ok := e.cache.Group(k); ok {
			res.groups[k] = parts
			tr.addHit(k.Table, len(parts) == 0)
		} else {
			missGroups = append(missGroups, k)
		}
	}
	missParts := scratch.missParts
	for _, k := range p.parts {
		if part, found, known := e.cache.Part(k); known {
			if found {
				res.parts[k] = part
			}
			tr.addHit(k.Table, !found)
		} else {
			missParts = append(missParts, k)
		}
	}

	// 2. One batched store round for everything that missed: the group
	// prefixes ride the raw scans' batched scan, the single parts ride
	// the raw gets' batched get, issued concurrently.
	scanRefs := scratch.scanRefs
	for _, k := range missGroups {
		scanRefs = append(scanRefs, k.scanRef())
	}
	scanRefs = append(scanRefs, p.scans...)
	getRefs := scratch.getRefs
	for _, k := range missParts {
		getRefs = append(getRefs, k.keyRef())
	}
	getRefs = append(getRefs, p.gets...)
	// Write the grown slices back so the pool keeps their capacity.
	scratch.missGroups = missGroups
	scratch.missParts = missParts
	scratch.scanRefs = scanRefs
	scratch.getRefs = getRefs
	if tr != nil {
		// Logical reads, attributed per table from the issued request
		// set (one read per key or prefix scan — the same accounting as
		// kvstore.Metrics.Reads).
		for _, ref := range scanRefs {
			tr.addReads(ref.Table, 1)
		}
		for _, ref := range getRefs {
			tr.addReads(ref.Table, 1)
		}
	}

	// round holds what the two concurrent calls return (one value, so
	// the goroutines share one heap object).
	var round struct {
		scanRows  [][]kvstore.Row
		getVals   []kvstore.GetResult
		scan, get kvstore.CallStats
		wg        sync.WaitGroup
	}
	if len(scanRefs) > 0 {
		round.wg.Add(1)
		go func() {
			defer round.wg.Done()
			round.scanRows, round.scan = e.store.MultiScanStatsCtx(ctx, scanRefs)
		}()
	}
	if len(getRefs) > 0 {
		round.wg.Add(1)
		go func() {
			defer round.wg.Done()
			round.getVals, round.get = e.store.MultiGetStatsCtx(ctx, getRefs)
		}()
	}
	round.wg.Wait()
	tr.addRound(round.scan, round.get)
	scanRows, getVals := round.scanRows, round.getVals
	// Cancelled mid-round: the result arrays may hold skipped (zero)
	// entries. Bail before decoding or installing anything.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// 3. Decode the missed groups and parts in parallel, installing them
	// in the cache as they complete.
	var mu sync.Mutex
	if err := ParallelCtx(ctx, clients, len(missGroups), func(i int) error {
		k := missGroups[i]
		rows := scanRows[i]
		parts := make([]Part, 0, len(rows))
		sizes := make([]int64, 0, len(rows))
		for _, row := range rows {
			pid, err := ParsePID(row.CKey)
			if err != nil {
				return err
			}
			part, err := e.decode(kvstore.KeyRef{Table: k.Table, PKey: scanRefs[i].PKey, CKey: row.CKey}, pid, row.Value)
			if err != nil {
				return err
			}
			parts = append(parts, part)
			sizes = append(sizes, int64(len(row.Value)))
		}
		// Result.Group promises pid-ascending parts; the store's
		// clustering order already is, but don't depend on it.
		sort.Sort(&partsByPID{parts, sizes})
		e.cache.AddGroup(k, parts, sizes)
		mu.Lock()
		res.groups[k] = parts
		mu.Unlock()
		return nil
	}); err != nil {
		return nil, err
	}
	if err := ParallelCtx(ctx, clients, len(missParts), func(i int) error {
		k := missParts[i]
		gv := getVals[i]
		if !gv.Found {
			// The row does not exist: remember that, so repeated probes
			// of sparse history stop issuing KV reads.
			e.cache.AddNegative(k)
			return nil
		}
		part, err := e.decode(getRefs[i], k.PID, gv.Value)
		if err != nil {
			return err
		}
		e.cache.AddPart(k, part, int64(len(gv.Value)))
		mu.Lock()
		res.parts[k] = part
		mu.Unlock()
		return nil
	}); err != nil {
		return nil, err
	}

	// 4. Raw results, positionally after the group and part requests.
	for i, ref := range p.scans {
		res.scans[ref] = scanRows[len(missGroups)+i]
	}
	for i, ref := range p.gets {
		if gv := getVals[len(missParts)+i]; gv.Found {
			res.gets[ref] = gv.Value
		}
	}
	return res, nil
}

// decode turns the stored row at ref into a Part: the row's table picks
// the decoder (micro-eventlists for the eventlist tables, micro-deltas
// otherwise).
func (e *Executor) decode(ref kvstore.KeyRef, pid int, blob []byte) (Part, error) {
	p := Part{PID: pid}
	var err error
	if isEventTable(ref.Table) {
		p.Events, err = e.cdc.DecodeEvents(blob)
	} else {
		p.Delta, err = e.cdc.DecodeDelta(blob)
	}
	if err != nil {
		return Part{}, fmt.Errorf("fetch: decode %s row %s/%s: %w", ref.Table, ref.PKey, ref.CKey, err)
	}
	return p, nil
}
