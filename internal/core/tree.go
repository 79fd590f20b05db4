package core

import (
	"hgs/internal/delta"
)

// The delta tree of a timespan (paper §4.3(b)) groups each level of its
// leaves 0..n-1 left-aligned by the arity k: node j of level h covers
// leaves [j·k^h, (j+1)·k^h) ∩ [0, n), and a group of one is promoted
// unchanged to the level above. A node's id is its level and index
// where it is formed (treeDID), which depends only on the leaves it
// covers: a span that gains leaves keeps every id, and only the nodes
// covering a new or rewritten leaf change content.

// treeNode is one node of a timespan's delta tree.
type treeNode struct {
	did      int
	lo, hi   int // the covered leaves [lo, hi)
	children []*treeNode
}

// treeDID is the id of node index of level: ids are level-major, and
// stride exceeds any span's leaf count (spanStride).
func treeDID(level, index, stride int) int { return level*stride + index }

// shapeTree returns the root of the tree over n >= 1 leaves.
func shapeTree(n, arity, stride int) *treeNode {
	level := make([]*treeNode, n)
	for i := range level {
		level[i] = &treeNode{did: treeDID(0, i, stride), lo: i, hi: i + 1}
	}
	for h := 1; len(level) > 1; h++ {
		next := make([]*treeNode, 0, (len(level)+arity-1)/arity)
		for i := 0; i < len(level); i += arity {
			group := level[i:min(i+arity, len(level))]
			if len(group) == 1 {
				next = append(next, group[0]) // a lone node is promoted unchanged
				continue
			}
			next = append(next, &treeNode{did: treeDID(h, i/arity, stride),
				lo: group[0].lo, hi: group[len(group)-1].hi, children: group})
		}
		level = next
	}
	return level[0]
}

// pathTo returns the nodes from n down to leaf i, which n covers.
func (n *treeNode) pathTo(i int) []*treeNode {
	path := []*treeNode{n}
	for len(n.children) > 0 {
		for _, c := range n.children {
			if i < c.hi {
				n = c
				break
			}
		}
		path = append(path, n)
	}
	return path
}

// leafPaths returns, per leaf, the ids from the root down to it: summing
// the stored deltas in order reconstructs the leaf.
func leafPaths(root *treeNode) [][]int {
	out := make([][]int, root.hi)
	var walk func(n *treeNode, path []int)
	walk = func(n *treeNode, path []int) {
		path = append(path, n.did)
		if len(n.children) == 0 {
			out[n.lo] = append([]int(nil), path...)
			return
		}
		for _, c := range n.children {
			walk(c, path)
		}
	}
	walk(root, nil)
	return out
}

// storedDelta is one tree delta ready for persistence: the root is stored
// in full; every other node stores its difference from its parent (the
// "derived partitioned snapshot" of §4.3(b)).
type storedDelta struct {
	did  int
	data *delta.Delta
}

// treeDeltas returns the stored content of every node covering a leaf at
// or after first (a dirty node) and of every child of one, root first.
// A node's content is the intersection of its children's (paper
// §4.3(b)): leaf(i) gives leaf i >= first, and clean(n) the content of a
// node covering only leaves before first — never called when first is 0.
// Since a parent's content is contained in each child's, a stored
// difference never holds a tombstone.
func treeDeltas(root *treeNode, first int, leaf func(i int) *delta.Delta, clean func(n *treeNode) (*delta.Delta, error)) ([]storedDelta, error) {
	full := make(map[*treeNode]*delta.Delta)
	var content func(n *treeNode) (*delta.Delta, error)
	content = func(n *treeNode) (*delta.Delta, error) {
		if d, ok := full[n]; ok {
			return d, nil
		}
		var d *delta.Delta
		switch {
		case n.hi <= first:
			var err error
			if d, err = clean(n); err != nil {
				return nil, err
			}
		case len(n.children) == 0:
			d = leaf(n.lo)
		default:
			ds := make([]*delta.Delta, len(n.children))
			for i, c := range n.children {
				var err error
				if ds[i], err = content(c); err != nil {
					return nil, err
				}
			}
			d = delta.IntersectAll(ds)
		}
		full[n] = d
		return d, nil
	}
	rd, err := content(root)
	if err != nil {
		return nil, err
	}
	out := []storedDelta{{did: root.did, data: rd}}
	var walk func(n *treeNode)
	walk = func(n *treeNode) {
		for _, c := range n.children {
			out = append(out, storedDelta{did: c.did, data: delta.Diff(full[c], full[n])})
			if c.hi > first {
				walk(c)
			}
		}
	}
	walk(root)
	return out, nil
}
