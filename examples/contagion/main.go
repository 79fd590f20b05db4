// Contagion: the paper's introduction motivates historical graph
// analysis with the spread of epidemics and information diffusion. This
// example simulates an SI contagion over a temporal contact network —
// infection can only cross edges that exist at the moment of contact —
// then uses the store to answer the retrospective questions an
// epidemiologist would ask: when did each node get infected, which
// contact was responsible, and how did the infected set grow?
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"
	"sort"

	"hgs"
	"hgs/internal/workload"
)

func main() {
	// A contact network with churn: friendships form and dissolve.
	base := workload.Friendster(workload.FriendsterConfig{
		Communities:   5,
		CommunitySize: 200,
		IntraDegree:   6,
		InterFraction: 0.05,
		Seed:          11,
	})
	events := workload.Augment(base, workload.AugmentConfig{Extra: 4000, DeleteFraction: 0.45, Seed: 12})

	store, err := hgs.Open(hgs.Options{
		Machines:       2,
		TimespanEvents: len(events)/2 + 1,
		EventlistSize:  len(events) / 12,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := store.Load(events); err != nil {
		log.Fatal(err)
	}
	lo, hi, _ := store.TimeRange()

	// Simulate the contagion over the stored history: walk snapshots at
	// regular check times; each infected node infects each current
	// neighbor with probability beta.
	const beta = 0.35
	rng := rand.New(rand.NewSource(1))
	patientZero := hgs.NodeID(0)
	infectedAt := map[hgs.NodeID]hgs.Time{patientZero: lo}
	infectedBy := map[hgs.NodeID]hgs.NodeID{}
	checks := hgs.EvenTimepoints(hgs.NewInterval(lo, hi+1), 24)
	for _, t := range checks {
		g, err := store.Snapshot(t)
		if err != nil {
			log.Fatal(err)
		}
		// Contacts of the nodes infected before this check, in id order:
		// the draws from rng, and so the run, are the same every time.
		infected := make([]hgs.NodeID, 0, len(infectedAt))
		for id := range infectedAt {
			infected = append(infected, id)
		}
		slices.Sort(infected)
		for _, id := range infected {
			for _, nb := range g.Neighbors(id) {
				if _, done := infectedAt[nb]; done {
					continue
				}
				if rng.Float64() < beta {
					infectedAt[nb] = t
					infectedBy[nb] = id
				}
			}
		}
	}
	fmt.Printf("contagion reached %d of %d nodes\n", len(infectedAt), mustNodes(store, hi))

	// Retrospective 1: growth curve of the infected set.
	type tick struct {
		t hgs.Time
		n int
	}
	var curve []tick
	for _, t := range checks {
		n := 0
		for _, t0 := range infectedAt {
			if t0 <= t {
				n++
			}
		}
		curve = append(curve, tick{t, n})
	}
	fmt.Println("\ninfected count over time:")
	for _, c := range curve {
		fmt.Printf("  t=%-8d %4d\n", c.t, c.n)
	}

	// Retrospective 2: verify transmission edges existed at infection
	// time — a temporal-pattern check only a historical store can do.
	verified, broken := 0, 0
	for victim, source := range infectedBy {
		g, err := store.KHop(source, 1, infectedAt[victim])
		if err != nil {
			log.Fatal(err)
		}
		if g.Has(victim) {
			verified++
		} else {
			broken++
		}
	}
	fmt.Printf("\ntransmission edges verified in history: %d/%d\n", verified, verified+broken)

	// Retrospective 3: super-spreaders — who infected the most?
	spread := map[hgs.NodeID]int{}
	for _, source := range infectedBy {
		spread[source]++
	}
	type ss struct {
		id hgs.NodeID
		n  int
	}
	var tops []ss
	for id, n := range spread {
		tops = append(tops, ss{id, n})
	}
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].n != tops[j].n {
			return tops[i].n > tops[j].n
		}
		return tops[i].id < tops[j].id
	})
	fmt.Println("\ntop spreaders (direct infections):")
	for i := 0; i < 3 && i < len(tops); i++ {
		h, err := store.NodeHistory(tops[i].id, lo, hi+1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  node %-6d infected %2d others (contact-list changes: %d)\n",
			tops[i].id, tops[i].n, len(h.Events))
	}
}

func mustNodes(store *hgs.Store, t hgs.Time) int {
	g, err := store.Snapshot(t)
	if err != nil {
		log.Fatal(err)
	}
	return g.NumNodes()
}
