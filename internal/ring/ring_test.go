package ring

import (
	"fmt"
	"hash/fnv"
	"testing"
)

func keyHash(i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "key-%d", i)
	return h.Sum64()
}

func sampleHashes(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = keyHash(i)
	}
	return out
}

// Moved counts how many of the sampled key hashes have a different
// owner SET on to than on from (ownership order changes alone are not
// movement — no data is copied for them).
func Moved(from, to *Ring, hashes []uint64) int {
	moved := 0
	var fb, tb [16]int
	for _, h := range hashes {
		f := from.Lookup(h, fb[:0])
		t := to.Lookup(h, tb[:0])
		if !sameSet(f, t) {
			moved++
		}
	}
	return moved
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		if !contains(b, x) {
			return false
		}
	}
	return true
}

// Replicas must always be distinct nodes, for every key and every
// replication factor up to the node count.
func TestLookupDistinct(t *testing.T) {
	for _, rf := range []int{1, 2, 3, 5} {
		r := New([]int{0, 1, 2, 3, 4}, 32, rf)
		var buf [8]int
		for _, h := range sampleHashes(2000) {
			owners := r.Lookup(h, buf[:0])
			if len(owners) != rf {
				t.Fatalf("r=%d: got %d owners %v", rf, len(owners), owners)
			}
			seen := map[int]bool{}
			for _, n := range owners {
				if seen[n] {
					t.Fatalf("r=%d: duplicate owner in %v", rf, owners)
				}
				seen[n] = true
				if n < 0 || n > 4 {
					t.Fatalf("owner %d outside node set", n)
				}
			}
		}
	}
}

// A replication factor above the node count clamps to the node count.
func TestLookupClampsToNodeCount(t *testing.T) {
	r := New([]int{7, 9}, 16, 3)
	owners := r.Lookup(keyHash(1), nil)
	if len(owners) != 2 {
		t.Fatalf("want 2 owners, got %v", owners)
	}
}

// Placement depends only on the node set — not on construction order,
// not on the process. Two independently built rings (a "restart") agree
// on every key.
func TestDeterministicAcrossConstruction(t *testing.T) {
	a := New([]int{0, 1, 2, 3}, 64, 2)
	b := New([]int{3, 1, 0, 2, 2}, 64, 2) // shuffled, with a duplicate
	var ab, bb [4]int
	for _, h := range sampleHashes(5000) {
		ao := a.Lookup(h, ab[:0])
		bo := b.Lookup(h, bb[:0])
		if len(ao) != len(bo) {
			t.Fatalf("owner count differs: %v vs %v", ao, bo)
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("placement differs at %x: %v vs %v", h, ao, bo)
			}
		}
	}
}

// The consistent-hashing movement bound: adding one node to m moves
// about K·R/(m+1) of K keys' owner sets — well under 2·K·R/m — while
// modulo placement reshuffles nearly everything. This is the property
// the whole refactor exists for, and the old scheme's failure of it.
func TestMovementBoundOnNodeAdd(t *testing.T) {
	const K = 10000
	hashes := sampleHashes(K)
	for _, m := range []int{3, 4, 6} {
		nodes := make([]int, m)
		for i := range nodes {
			nodes[i] = i
		}
		const rf = 2
		from := New(nodes, 64, rf)
		to := from.With(m)
		moved := Moved(from, to, hashes)
		bound := 2 * K * rf / m
		if moved > bound {
			t.Errorf("m=%d: ring moved %d/%d keys, above the 2KR/m bound %d", m, moved, K, bound)
		}
		if moved == 0 {
			t.Errorf("m=%d: node add moved nothing — new node owns no keys", m)
		}

		// The old mod-m scheme: primary = h % m, replicas the next
		// (primary+i) % m. Count keys whose owner set survives m -> m+1.
		modMoved := 0
		for _, h := range hashes {
			var a, b [rf]int
			for i := 0; i < rf; i++ {
				a[i] = int((h%uint64(m) + uint64(i)) % uint64(m))
				b[i] = int((h%uint64(m+1) + uint64(i)) % uint64(m+1))
			}
			if !sameSet(a[:], b[:]) {
				modMoved++
			}
		}
		if modMoved <= K/2 {
			t.Errorf("m=%d: mod-m moved only %d/%d — expected a majority reshuffle", m, modMoved, K)
		}
		if moved >= modMoved {
			t.Errorf("m=%d: ring movement %d not below mod-m movement %d", m, moved, modMoved)
		}
	}
}

// Removing a node relocates only that node's keys: every key it did not
// own keeps its exact owner set.
func TestRemovalOnlyMovesOwnedKeys(t *testing.T) {
	from := New([]int{0, 1, 2, 3}, 64, 2)
	to := from.Without(2)
	var fb, tb [4]int
	for _, h := range sampleHashes(5000) {
		f := from.Lookup(h, fb[:0])
		if contains(f, 2) {
			continue
		}
		tt := to.Lookup(h, tb[:0])
		if !sameSet(f, tt) {
			t.Fatalf("key %x moved (%v -> %v) though node 2 never owned it", h, f, tt)
		}
	}
}

// Primary shares stay within a reasonable band of 1/m at the default
// vnode count, and sum to 1.
func TestSharesBalanced(t *testing.T) {
	r := New([]int{0, 1, 2, 3}, DefaultVirtualNodes, 2)
	shares := r.Shares()
	total := 0.0
	for n, s := range shares {
		total += s
		if s < 0.10 || s > 0.45 {
			t.Errorf("node %d primary share %.3f outside [0.10, 0.45]", n, s)
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %.4f, want 1", total)
	}
}

// Lookup into a caller-provided buffer must not allocate — it is the
// per-operation routing step of every cluster read and write.
func TestLookupNoAlloc(t *testing.T) {
	r := New([]int{0, 1, 2, 3}, 64, 2)
	hashes := sampleHashes(64)
	var buf [8]int
	allocs := testing.AllocsPerRun(100, func() {
		for _, h := range hashes {
			if got := r.Lookup(h, buf[:0]); len(got) != 2 {
				t.Fatal("bad lookup")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocated %.1f times per run, want 0", allocs)
	}
}

func TestEmptyRing(t *testing.T) {
	r := New(nil, 8, 2)
	if got := r.Lookup(42, nil); len(got) != 0 {
		t.Fatalf("empty ring returned owners %v", got)
	}
	if len(r.Shares()) != 0 {
		t.Fatal("empty ring has shares")
	}
}
