package hgs

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"hgs/internal/kvstore"
)

// goroutineSettled polls until the goroutine count returns to within
// slack of base (workers and timers need a beat to unwind).
func goroutineSettled(base, slack int) bool {
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= base+slack {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// TestSnapshotCancellation cancels a retrieval mid-flight under a wide
// materialize pool (one worker per GOMAXPROCS, held at 8 here) and a
// slow store (an injected ExtraLatency on every node): the call must
// return the context error promptly and leak no goroutines.
func TestSnapshotCancellation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	opts := smallOptions()
	opts.CacheBytes = -1 // every round hits the (slow) store
	store, events := loadWiki(t, opts, 1200)
	defer store.Close()
	last := events[len(events)-1].Time
	cluster := store.Cluster()
	for _, id := range cluster.NodeIDs() {
		if err := cluster.InjectFault(id, &kvstore.Fault{ExtraLatency: 50 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := store.SnapshotWith(last, &FetchOptions{Context: ctx})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the fetch rounds start
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled snapshot returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled snapshot did not return")
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Errorf("cancellation took %v, want <~100ms", d)
	}
	if !goroutineSettled(base, 2) {
		t.Errorf("goroutines leaked: base %d, now %d", base, runtime.NumGoroutine())
	}
	for _, id := range cluster.NodeIDs() {
		if err := cluster.InjectFault(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The store stays fully usable after a cancelled call, and the
	// aborted round must not have poisoned the cache with partial or
	// phantom-absence entries.
	g, err := store.Snapshot(last)
	if err != nil {
		t.Fatalf("snapshot after cancellation: %v", err)
	}
	want := mustGraph(events, last)
	if g.NumNodes() != want.NumNodes() || g.NumEdges() != want.NumEdges() {
		t.Fatalf("post-cancel snapshot mismatch: %d/%d nodes, %d/%d edges",
			g.NumNodes(), want.NumNodes(), g.NumEdges(), want.NumEdges())
	}
}

// TestDeadlineExceeded runs every retrieval that takes FetchOptions
// cold under an expired deadline: each must return
// context.DeadlineExceeded, so no entry point drops its options.
func TestDeadlineExceeded(t *testing.T) {
	opts := smallOptions()
	opts.CacheBytes = -1
	store, events := loadWiki(t, opts, 800)
	defer store.Close()
	first, last := events[0].Time, events[len(events)-1].Time

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	fo := &FetchOptions{Context: ctx}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"SnapshotWith", func() error { _, err := store.SnapshotWith(last, fo); return err }},
		{"SnapshotsWith", func() error { _, err := store.SnapshotsWith([]Time{first, last}, fo); return err }},
		{"StreamSnapshot", func() error {
			return store.StreamSnapshot(last, fo, func(int, []*NodeState) error { return nil })
		}},
		{"NodeWith", func() error { _, err := store.NodeWith(1, last, fo); return err }},
		{"NodeHistoryWith", func() error { _, err := store.NodeHistoryWith(1, first, last, fo); return err }},
		{"ChangeTimesWith", func() error { _, err := store.ChangeTimesWith(1, first, last, fo); return err }},
		{"KHopWith", func() error { _, err := store.KHopWith(1, 1, last, fo); return err }},
		{"KHopHistoryWith", func() error { _, err := store.KHopHistoryWith(1, 1, first, last, fo); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s under an expired deadline returned %v, want context.DeadlineExceeded", tc.name, err)
			}
		})
	}
}

// TestCloseDrainsInFlight hammers the store from query goroutines while
// Close runs: Close must wait for in-flight retrievals (no use-after-
// close of the cluster; the race detector guards the regression) and
// every call after it must fail with ErrClosed.
func TestCloseDrainsInFlight(t *testing.T) {
	store, events := loadWiki(t, smallOptions(), 800)
	last := events[len(events)-1].Time

	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				_, err := store.Snapshot(last)
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("query during close: %v", err)
					}
					return
				}
			}
		}()
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // queries in flight
	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()

	if _, err := store.Snapshot(last); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot after Close returned %v, want ErrClosed", err)
	}
	if _, err := store.Stats(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Stats after Close returned %v, want ErrClosed", err)
	}
	if _, _, err := store.TimeRange(); !errors.Is(err, ErrClosed) {
		t.Fatalf("TimeRange after Close returned %v, want ErrClosed", err)
	}
	if err := store.Append([]Event{{Time: last + 1, Kind: AddNode, Node: 9}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close returned %v, want ErrClosed", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestErrNotLoaded checks the sentinel surfaces from queries against an
// empty store.
func TestErrNotLoaded(t *testing.T) {
	store, err := Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.Snapshot(10); !errors.Is(err, ErrNotLoaded) {
		t.Fatalf("empty-store snapshot returned %v, want ErrNotLoaded", err)
	}
	if _, _, err := store.TimeRange(); !errors.Is(err, ErrNotLoaded) {
		t.Fatalf("empty-store TimeRange returned %v, want ErrNotLoaded", err)
	}
}

// TestStreamSnapshotMatches checks the streaming surface emits exactly
// the snapshot's nodes.
func TestStreamSnapshotMatches(t *testing.T) {
	store, events := loadWiki(t, smallOptions(), 600)
	defer store.Close()
	last := events[len(events)-1].Time
	g, err := store.Snapshot(last)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := make(map[NodeID]bool)
	err = store.StreamSnapshot(last, nil, func(sid int, states []*NodeState) error {
		mu.Lock()
		defer mu.Unlock()
		for _, ns := range states {
			if seen[ns.ID] {
				t.Errorf("node %d emitted twice", ns.ID)
			}
			seen[ns.ID] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != g.NumNodes() {
		t.Fatalf("streamed %d nodes, snapshot has %d", len(seen), g.NumNodes())
	}
	for _, id := range g.NodeIDs() {
		if !seen[id] {
			t.Fatalf("node %d missing from stream", id)
		}
	}
}

// TestCancelledAppendNotStarted: an already-cancelled context stops an
// Append before any write happens.
func TestCancelledAppendNotStarted(t *testing.T) {
	store, events := loadWiki(t, smallOptions(), 400)
	defer store.Close()
	last := events[len(events)-1].Time
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := store.AppendCtx(ctx, []Event{{Time: last + 1, Kind: AddNode, Node: 123456}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled append returned %v", err)
	}
	if ns, err := store.Node(123456, last); err != nil || ns != nil {
		t.Fatalf("cancelled append wrote: %v %v", ns, err)
	}
}
