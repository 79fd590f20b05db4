package hgs_test

import (
	"fmt"

	"hgs"
)

// ExampleStore demonstrates loading a history and retrieving past states.
func ExampleStore() {
	store, _ := hgs.Open(hgs.Options{})
	_ = store.Load([]hgs.Event{
		{Time: 1, Kind: hgs.AddNode, Node: 1},
		{Time: 2, Kind: hgs.AddNode, Node: 2},
		{Time: 3, Kind: hgs.AddEdge, Node: 1, Other: 2},
		{Time: 4, Kind: hgs.SetNodeAttr, Node: 1, Key: "name", Value: "ada"},
		{Time: 5, Kind: hgs.RemoveEdge, Node: 1, Other: 2},
	})

	g3, _ := store.Snapshot(3)
	g5, _ := store.Snapshot(5)
	fmt.Println("edges at t=3:", g3.NumEdges())
	fmt.Println("edges at t=5:", g5.NumEdges())

	ns, _ := store.Node(1, 4)
	fmt.Println("name at t=4:", ns.Attrs["name"])
	// Output:
	// edges at t=3: 1
	// edges at t=5: 0
	// name at t=4: ada
}

// ExampleStore_nodeHistory walks a node's versions.
func ExampleStore_nodeHistory() {
	store, _ := hgs.Open(hgs.Options{})
	_ = store.Load([]hgs.Event{
		{Time: 1, Kind: hgs.AddNode, Node: 7},
		{Time: 2, Kind: hgs.SetNodeAttr, Node: 7, Key: "job", Value: "analyst"},
		{Time: 3, Kind: hgs.SetNodeAttr, Node: 7, Key: "job", Value: "manager"},
	})
	h, _ := store.NodeHistory(7, 0, 10)
	for _, v := range h.Versions() {
		fmt.Printf("%v job=%q\n", v.Valid, v.State.Attrs["job"])
	}
	// Output:
	// [1, 2) job=""
	// [2, 3) job="analyst"
	// [3, 10) job="manager"
}

// ExampleStore_planTraces traces retrievals: each query records what it
// planned, what the decoded-delta cache absorbed (including known
// absences), and what actually hit the key-value store.
func ExampleStore_planTraces() {
	store, _ := hgs.Open(hgs.Options{})
	_ = store.Load([]hgs.Event{
		{Time: 1, Kind: hgs.AddNode, Node: 1},
		{Time: 2, Kind: hgs.AddNode, Node: 2},
		{Time: 3, Kind: hgs.AddEdge, Node: 1, Other: 2},
	})
	_, _ = store.Snapshot(3) // cold: the plan's delta groups read the store
	_, _ = store.Snapshot(3) // warm: the cache answers the same plan
	for _, tr := range store.PlanTraces() {
		fmt.Printf("%s: read the store? %v cache answered? %v\n",
			tr.Op, tr.KVReads > 0, tr.CacheHits+tr.NegativeHits > 0)
	}
	// Output:
	// snapshot: read the store? true cache answered? false
	// snapshot: read the store? false cache answered? true
}

// ExampleEvolution samples a graph quantity over time with the TAF.
func ExampleEvolution() {
	store, _ := hgs.Open(hgs.Options{})
	_ = store.Load([]hgs.Event{
		{Time: 1, Kind: hgs.AddNode, Node: 1},
		{Time: 2, Kind: hgs.AddNode, Node: 2},
		{Time: 3, Kind: hgs.AddNode, Node: 3},
		{Time: 4, Kind: hgs.AddEdge, Node: 1, Other: 2},
		{Time: 5, Kind: hgs.AddEdge, Node: 2, Other: 3},
		{Time: 6, Kind: hgs.AddEdge, Node: 1, Other: 3},
	})
	a := store.Analytics(2)
	son, _ := a.SON().Timeslice(hgs.NewInterval(1, 7)).Fetch()
	series := hgs.Evolution(son, hgs.GraphDensity, 3, []hgs.Time{3, 4, 6})
	for _, p := range series {
		fmt.Printf("t=%d density=%.2f\n", p.Time, p.Value)
	}
	if m, ok := series.Max(); ok {
		fmt.Printf("peak at t=%d\n", m.Time)
	}
	// Output:
	// t=3 density=0.00
	// t=4 density=0.33
	// t=6 density=1.00
	// peak at t=6
}
