package kvstore

// Seeded chaos harness for the replicated store. Each seed drives a
// deterministic schedule of concurrent writers, readers, and a fault
// controller (node failures, revivals, injected errors, topology
// changes, anti-entropy sweeps) against a quorum-configured cluster,
// then quiesces and asserts the two convergence invariants:
//
//  1. every replica set is byte-identical after hints replay, pending
//     read-repairs drain, and one anti-entropy sweep;
//  2. for single-writer keys, the converged value equals a single-node
//     oracle store that received the same writes in the same order.
//
// Contended keys (several writers racing on one key) are only checked
// for invariant 1: replicas must agree on *some* writer's value, which
// is exactly what the version stamps guarantee and what the pre-quorum
// code could not (interleaved per-replica applies left replicas
// permanently split).
//
// Replay a failure with: go test ./internal/kvstore/ -run TestChaos -chaos.seed=<N>

import (
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

var (
	chaosSeed  = flag.Int64("chaos.seed", 0, "replay a single chaos seed instead of the sweep")
	chaosSeeds = flag.Int("chaos.seeds", 0, "override the number of chaos seeds (0 = 50 short / 500 full)")
)

const (
	chaosWriters     = 3
	chaosOwnedKeys   = 4 // per writer
	chaosOpsPerGoro  = 40
	chaosCtrlActions = 12
	chaosPartitions  = 4
	chaosTable       = "t"
	chaosSharedPKey  = "ps"
)

func chaosSeedList() []int64 {
	if *chaosSeed != 0 {
		return []int64{*chaosSeed}
	}
	n := 500
	if testing.Short() {
		n = 50
	}
	if *chaosSeeds > 0 {
		n = *chaosSeeds
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(1000 + i)
	}
	return seeds
}

func ownedPKey(w, j int) string {
	return fmt.Sprintf("p%d", (w*chaosOwnedKeys+j)%chaosPartitions)
}

func ownedCKey(w, j int) string {
	return fmt.Sprintf("w%d-k%d", w, j)
}

func TestChaosQuorumConvergence(t *testing.T) {
	for _, seed := range chaosSeedList() {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosSeed(t, seed)
		})
	}
}

func runChaosSeed(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	m := 3 + rng.Intn(3) // 3..5 machines
	r := 2 + rng.Intn(2) // replication 2..3
	if r > m {
		r = m
	}
	rq := 1 + rng.Intn(r)
	wq := 1 + rng.Intn(r)
	t.Logf("seed=%d m=%d r=%d R=%d W=%d (replay with -chaos.seed=%d)", seed, m, r, rq, wq, seed)

	c := NewCluster(Config{Machines: m, Replication: r, ReadQuorum: rq, WriteQuorum: wq})
	defer c.Close()
	oracle := NewCluster(Config{Machines: 1, Replication: 1})
	defer oracle.Close()

	var wg sync.WaitGroup

	// Writers: each owns a disjoint key set (dual-written to the oracle
	// in program order) and also races the others on two shared keys.
	for w := 0; w < chaosWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed*31 + int64(w)))
			for i := 0; i < chaosOpsPerGoro; i++ {
				if wrng.Intn(4) == 0 { // contended write, no oracle
					ckey := fmt.Sprintf("shared-%d", wrng.Intn(2))
					c.Put(chaosTable, chaosSharedPKey, ckey, []byte(fmt.Sprintf("w%d-i%d", w, i)))
					continue
				}
				j := wrng.Intn(chaosOwnedKeys)
				val := []byte(fmt.Sprintf("v-%d-%d-%d", w, j, i))
				c.Put(chaosTable, ownedPKey(w, j), ownedCKey(w, j), val)
				oracle.Put(chaosTable, ownedPKey(w, j), ownedCKey(w, j), val)
			}
		}(w)
	}

	// Reader: exercises every read path concurrently with the faults.
	// Results are unchecked mid-flight (a read racing a write may see
	// either version); the harness only demands no panic and no race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rrng := rand.New(rand.NewSource(seed*31 + 100))
		for i := 0; i < chaosOpsPerGoro; i++ {
			w := rrng.Intn(chaosWriters)
			j := rrng.Intn(chaosOwnedKeys)
			switch rrng.Intn(3) {
			case 0:
				c.Get(chaosTable, ownedPKey(w, j), ownedCKey(w, j))
			case 1:
				c.ScanPartition(chaosTable, fmt.Sprintf("p%d", rrng.Intn(chaosPartitions)))
			default:
				refs := make([]KeyRef, 0, 4)
				for k := 0; k < 4; k++ {
					w, j := rrng.Intn(chaosWriters), rrng.Intn(chaosOwnedKeys)
					refs = append(refs, KeyRef{Table: chaosTable, PKey: ownedPKey(w, j), CKey: ownedCKey(w, j)})
				}
				c.MultiGet(refs)
			}
		}
	}()

	// Controller: one node down at a time (so every partition keeps a
	// live replica), plus injected faults and topology churn. Errors
	// from conflicting operations (mid-rebalance, unknown node) are
	// expected and ignored — the harness cares about convergence, not
	// whether a particular action landed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		crng := rand.New(rand.NewSource(seed*31 + 200))
		downID, nextID, added := -1, m, 0
		liveIDs := func() []int {
			info := c.Topology()
			ids := make([]int, 0, len(info.Nodes))
			for _, n := range info.Nodes {
				ids = append(ids, n.ID)
			}
			return ids
		}
		for i := 0; i < chaosCtrlActions; i++ {
			time.Sleep(time.Duration(crng.Intn(2000)) * time.Microsecond)
			ids := liveIDs()
			id := ids[crng.Intn(len(ids))]
			switch crng.Intn(7) {
			case 0:
				if downID < 0 && c.FailNode(id) == nil {
					downID = id
				}
			case 1:
				if downID >= 0 {
					c.ReviveNode(downID) //nolint:errcheck // node may have been removed meanwhile
					downID = -1
				}
			case 2:
				c.InjectFault(id, &Fault{ErrRate: 0.3}) //nolint:errcheck
			case 3:
				c.InjectFault(id, nil) //nolint:errcheck
			case 4:
				if added < 2 && c.AddNode(nextID) == nil {
					added++
					nextID++
				}
			case 5:
				// Anti-entropy overlapping writers, revives and fault
				// clears; refused mid-rebalance or mid-sweep.
				c.RepairPartitions() //nolint:errcheck // ErrRebalancing / ErrRepairRunning
			default:
				if id != downID {
					c.RemoveNode(id) //nolint:errcheck // refused below replication or mid-rebalance
				}
			}
		}
	}()

	wg.Wait()

	// Quiesce: wait out background quorum-write tails, heal everything,
	// let the rebalancer and read-repair queue drain, then run
	// anti-entropy until a sweep finds nothing.
	c.writeGate.Lock()
	c.writeGate.Unlock() //nolint:staticcheck // empty critical section is the tail barrier
	for _, n := range c.Topology().Nodes {
		c.InjectFault(n.ID, nil) //nolint:errcheck
		if n.Down {
			if err := c.ReviveNode(n.ID); err != nil {
				t.Fatalf("seed %d: revive node %d: %v", seed, n.ID, err)
			}
		}
	}
	if err := c.WaitRebalance(); err != nil {
		t.Fatalf("seed %d: wait rebalance: %v", seed, err)
	}
	drainRepairs(t, c)
	converged := false
	for i := 0; i < 5; i++ {
		stats, err := c.RepairPartitions()
		if err != nil {
			t.Fatalf("seed %d: anti-entropy: %v", seed, err)
		}
		if stats == (RepairStats{}) {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatalf("seed %d: anti-entropy still streaming after 5 sweeps", seed)
	}

	// Invariant 1: replica sets byte-identical for every partition.
	pkeys := make([]string, 0, chaosPartitions+1)
	for p := 0; p < chaosPartitions; p++ {
		pkeys = append(pkeys, fmt.Sprintf("p%d", p))
	}
	pkeys = append(pkeys, chaosSharedPKey)
	for _, pkey := range pkeys {
		ids := c.ReplicasOf(chaosTable, pkey)
		var want []Row
		for i, id := range ids {
			n := c.nodeAt(id)
			if n == nil {
				t.Fatalf("seed %d: owner %d of %s missing from cluster", seed, id, pkey)
			}
			n.mu.Lock()
			rows := n.be.ScanPrefix(chaosTable, pkey, "")
			n.mu.Unlock()
			if i == 0 {
				want = rows
				continue
			}
			if len(rows) != len(want) {
				t.Fatalf("seed %d: partition %s: replica %d has %d rows, replica %d has %d",
					seed, pkey, id, len(rows), ids[0], len(want))
			}
			for j := range rows {
				if rows[j].CKey != want[j].CKey || string(rows[j].Value) != string(want[j].Value) {
					t.Fatalf("seed %d: partition %s row %d diverges between replicas %d and %d: %q vs %q",
						seed, pkey, j, ids[0], id, want[j], rows[j])
				}
			}
		}
	}

	// Invariant 2: single-writer keys equal the oracle.
	for w := 0; w < chaosWriters; w++ {
		for j := 0; j < chaosOwnedKeys; j++ {
			pkey, ckey := ownedPKey(w, j), ownedCKey(w, j)
			want, wantOK := oracle.Get(chaosTable, pkey, ckey)
			got, ok := c.Get(chaosTable, pkey, ckey)
			if ok != wantOK || string(got) != string(want) {
				t.Fatalf("seed %d: key %s/%s = %q,%v, oracle has %q,%v",
					seed, pkey, ckey, got, ok, want, wantOK)
			}
		}
	}
}
