package main

import (
	"math"
	"math/rand"
	"sort"
)

// Common settings at scale 1, as ISSUE 12 fixed them and README.md states
// them: 5 timespans of 8 eventlists, and a cold cache of about one
// fifteenth of the decoded index.
const (
	baseNodes          = 20000 // wiki20k-churn: ~150k events
	baseTimespanEvents = 32000
	baseEventlistSize  = 4000
	baseColdCacheBytes = 1 << 20 // vs ~15 MiB of decoded index
)

// sizing is the common settings scaled for one run (scale 1 in main,
// ~1/50 under go test -short).
type sizing struct {
	nodes          int
	timespanEvents int
	eventlistSize  int
	coldCacheBytes int64
}

func sizingFor(scale float64) sizing {
	at := func(base, floor int) int {
		if n := int(float64(base) * scale); n > floor {
			return n
		}
		return floor
	}
	return sizing{
		nodes:          at(baseNodes, 200),
		timespanEvents: at(baseTimespanEvents, 320),
		eventlistSize:  at(baseEventlistSize, 40),
		coldCacheBytes: int64(at(baseColdCacheBytes, 16<<10)),
	}
}

// dataset is the generated history plus the index the op generators need
// to ask only questions with an answer: every op names a node at a time
// at which it exists.
type dataset struct {
	events  []Event
	nodes   int
	created []Time // creation time of node i
	end     Time
}

func buildDataset(sz sizing, seed int64) *dataset {
	d := &dataset{events: genEvents(sz.nodes, seed), nodes: sz.nodes}
	d.created = make([]Time, sz.nodes)
	for _, e := range d.events {
		if isAddNode(e) {
			d.created[e.Node] = e.Time
		}
	}
	d.end = d.events[len(d.events)-1].Time
	return d
}

// prefix returns the view of the dataset a store loaded with only the
// first n events has: nodes created by then, history ending there.
func (d *dataset) prefix(n int) *dataset {
	p := &dataset{events: d.events[:n], created: d.created, end: d.events[n-1].Time}
	for p.nodes < d.nodes && d.created[p.nodes] <= p.end {
		p.nodes++
	}
	return p
}

type opKind int

const (
	kindSnapshot opKind = iota
	kindNode
	kindHistory
	kindChangeTimes
	kindKHop1
	kindKHop2
	kindAppend
	kindTAF
	numKinds
)

var kindNames = [numKinds]string{"snapshot", "node", "history", "changetimes", "khop1", "khop2", "append", "taf"}

func (k opKind) String() string { return kindNames[k] }

// op is one request: its kind and arguments, nothing of the answer.
type op struct {
	kind opKind
	id   NodeID
	t    Time // query time, or interval start
	te   Time // interval end (history, change times, TAF)
}

func (o op) k() int {
	if o.kind == kindKHop2 {
		return 2
	}
	return 1
}

// mix is a cumulative op-kind distribution.
type mix []struct {
	kind opKind
	upTo float64
}

var (
	// point_cold: node-version and neighbourhood retrieval.
	mixPoint = mix{{kindNode, 0.40}, {kindHistory, 0.70}, {kindChangeTimes, 0.80}, {kindKHop1, 0.95}, {kindKHop2, 1}}
	// serve_http: the same calls plus a streamed snapshot.
	mixServe = mix{{kindNode, 0.50}, {kindChangeTimes, 0.70}, {kindHistory, 0.85}, {kindKHop1, 0.95}, {kindSnapshot, 1}}
)

func (m mix) pick(u float64) opKind {
	for _, e := range m {
		if u < e.upTo {
			return e.kind
		}
	}
	return m[len(m)-1].kind
}

// opGen draws the seeded op stream of one workload. Op kind, node and
// query time come from a three-dimensional additive low-discrepancy
// sequence (the seed picks its starting point), so any prefix of the
// stream holds the mix's kinds in proportion and covers the nodes and
// history evenly: a run that completes more ops asks the same kind of
// questions, and means over the stream vary little from seed to seed.
type opGen struct {
	d    *dataset
	rng  *rand.Rand
	u0   [3]float64
	i    int
	zipf []float64 // cumulative Zipf(1.1) weight of popularity ranks 0..i
}

func newOpGen(d *dataset, seed int64) *opGen {
	rng := rand.New(rand.NewSource(seed))
	return &opGen{d: d, rng: rng, u0: [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}}
}

// r3 holds the increments of the R3 sequence: powers of the inverse of the
// real root of x^4 = x + 1.
var r3 = [3]float64{0.8191725133961645, 0.6710436067037893, 0.5497004779019703}

// spread returns the next point of the sequence in [0,1)^3, used as
// (kind, node, time).
func (g *opGen) spread() (uk, un, ut float64) {
	g.i++
	at := func(k int) float64 {
		_, f := math.Modf(g.u0[k] + float64(g.i)*r3[k])
		return f
	}
	return at(0), at(1), at(2)
}

// timeFor picks a time in [lo, end] at which node id exists.
func (g *opGen) timeFor(id NodeID, lo Time, u float64) Time {
	if c := g.d.created[id]; c > lo {
		lo = c
	}
	return lo + Time(u*float64(g.d.end-lo))
}

// uniformOp draws an op of the mix on a node spread over all nodes, at a
// time spread over that node's whole life (cache-hostile).
func (g *opGen) uniformOp(m mix) op {
	uk, un, ut := g.spread()
	o := op{kind: m.pick(uk), id: NodeID(un * float64(g.d.nodes)), te: g.d.end}
	o.t = g.timeFor(o.id, 1, ut)
	return o
}

// skewedOp draws an op of the mix on a Zipf(1.1)-popular node (the rank
// by inverse CDF from the sequence, so every prefix of the stream holds the
// ranks in proportion) at a time in the recent half of history
// (cache-friendly). Popularity rank r
// (from 0) belongs to node (r+1)*7919 mod nodes, which scatters the hot
// set over node ages the same way for every seed and keeps the oldest
// node, the largest hub, out of the top ranks: rank 0 draws a seventh of
// all requests, and a hub's size differs by tens of percent from seed to
// seed, which would make the seed and not the code set allocs_per_op.
func (g *opGen) skewedOp(m mix) op {
	if g.zipf == nil {
		g.zipf = make([]float64, g.d.nodes)
		total := 0.0
		for r := range g.zipf {
			total += math.Pow(float64(r+1), -1.1)
			g.zipf[r] = total
		}
	}
	uk, un, ut := g.spread()
	rank := sort.SearchFloat64s(g.zipf, un*g.zipf[len(g.zipf)-1])
	o := op{kind: m.pick(uk), id: NodeID((rank + 1) * 7919 % g.d.nodes), te: g.d.end}
	o.t = g.timeFor(o.id, g.d.end/2, ut)
	if o.kind == kindSnapshot {
		o.id = 0
	}
	return o
}

// snapshotOp draws a snapshot at a time spread over all of history.
func (g *opGen) snapshotOp() op {
	_, _, ut := g.spread()
	return op{kind: kindSnapshot, t: 1 + Time(ut*float64(g.d.end-1))}
}

// nodeOpIn draws a read of one of the first n nodes, all created by lo, at
// a time in [lo, hi].
func (g *opGen) nodeOpIn(n int, lo, hi Time) op {
	_, un, ut := g.spread()
	return op{kind: kindNode, id: NodeID(un * float64(n)), t: lo + Time(ut*float64(hi-lo))}
}

// tafOp draws a TAF job over a quarter of history that starts in the third
// quarter. A job's cost follows the number of nodes alive in its slice,
// which grows 1 : 2.6 from the first quarter to the last; slices drawn
// from all of history would let the positions a seed happens to draw, not
// the code, set the median of the dozen jobs a window holds.
func (g *opGen) tafOp() op {
	_, _, ut := g.spread()
	w := g.d.end / 4
	start := g.d.end/2 + Time(ut*float64(w))
	return op{kind: kindTAF, t: start, te: start + w}
}

// answer is what one op returned, in one shape for library calls and
// decoded HTTP bodies alike. Only the fields of the op's kind are set.
type answer struct {
	op      op
	graph   *Graph     // snapshot
	node    *NodeState // node; history: the initial state
	events  []Event    // history
	times   []Time     // change times; TAF: the evolution timepoints
	members []NodeID   // k-hop
	density []float64  // TAF evolution
	changes int        // TAF compute: sum of per-node change counts
	absent  bool       // the store said the node does not exist at op.t
}
