// Package bptree implements the in-memory B+-tree behind the off-chain
// engine's secondary indexes (internal/rdbms), which take inserts in any
// key order. It maps attribute values to opaque references, allows
// duplicate keys, and chains its leaves so range scans read entries in
// key order. The chain's own indexes grow by whole blocks on keys that
// only rise, so they are sorted arrays instead: the block-level index
// bisects the block headers (internal/index/blockindex) and the layered
// index's per-block second level is a sorted run (internal/index/layered).
package bptree

import (
	"sort"

	"sebdb/internal/types"
)

// DefaultOrder is the default maximum number of entries per node.
const DefaultOrder = 64

// Entry is one (key, reference) pair. Ref is opaque to the tree; SEBDB
// stores the transaction's position within its block.
type Entry struct {
	Key types.Value
	Ref uint64
}

type node struct {
	leaf bool
	keys []types.Value
	kids []*node  // internal nodes: len(kids) == len(keys)+1
	refs []uint64 // leaf nodes: parallel to keys
	next *node    // leaf chain
}

// Tree is a B+-tree over attribute values, allowing duplicate keys.
type Tree struct {
	root  *node
	order int
	size  int
}

// New returns an empty tree with the given order (0 means DefaultOrder).
func New(order int) *Tree {
	if order < 4 {
		order = DefaultOrder
	}
	return &Tree{root: &node{leaf: true}, order: order}
}

// Bulk builds a tree from entries, sorting them by key first. Leaves are
// packed full, matching the paper's append-time bulk-loading.
func Bulk(entries []Entry, order int) *Tree {
	if order < 4 {
		order = DefaultOrder
	}
	t := &Tree{order: order, size: len(entries)}
	if len(entries) == 0 {
		t.root = &node{leaf: true}
		return t
	}
	es := make([]Entry, len(entries))
	copy(es, entries)
	sort.SliceStable(es, func(i, j int) bool {
		return types.Compare(es[i].Key, es[j].Key) < 0
	})

	// Build the leaf level, packed full.
	var leaves []*node
	for off := 0; off < len(es); off += order {
		end := off + order
		if end > len(es) {
			end = len(es)
		}
		n := &node{leaf: true,
			keys: make([]types.Value, 0, end-off),
			refs: make([]uint64, 0, end-off)}
		for _, e := range es[off:end] {
			n.keys = append(n.keys, e.Key)
			n.refs = append(n.refs, e.Ref)
		}
		if len(leaves) > 0 {
			leaves[len(leaves)-1].next = n
		}
		leaves = append(leaves, n)
	}

	// Build internal levels until a single root remains.
	level := leaves
	for len(level) > 1 {
		var parents []*node
		for off := 0; off < len(level); off += order + 1 {
			end := off + order + 1
			if end > len(level) {
				end = len(level)
			}
			p := &node{kids: append([]*node(nil), level[off:end]...)}
			for i := 1; i < len(p.kids); i++ {
				p.keys = append(p.keys, firstKey(p.kids[i]))
			}
			parents = append(parents, p)
		}
		level = parents
	}
	t.root = level[0]
	return t
}

func firstKey(n *node) types.Value {
	for !n.leaf {
		n = n.kids[0]
	}
	return n.keys[0]
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Insert adds an entry; duplicate keys are kept.
func (t *Tree) Insert(key types.Value, ref uint64) {
	t.size++
	newKid, sepKey := t.insert(t.root, key, ref)
	if newKid != nil {
		t.root = &node{
			keys: []types.Value{sepKey},
			kids: []*node{t.root, newKid},
		}
	}
}

// insert descends into n; on split it returns the new right sibling and
// its separator key.
func (t *Tree) insert(n *node, key types.Value, ref uint64) (*node, types.Value) {
	if n.leaf {
		// Upper bound: equal keys append after existing ones.
		i := sort.Search(len(n.keys), func(i int) bool {
			return types.Compare(n.keys[i], key) > 0
		})
		n.keys = append(n.keys, types.Null)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.refs = append(n.refs, 0)
		copy(n.refs[i+1:], n.refs[i:])
		n.refs[i] = ref
		if len(n.keys) <= t.order {
			return nil, types.Null
		}
		mid := len(n.keys) / 2
		if i == len(n.keys)-1 {
			// Append pattern (monotonically increasing keys, e.g. the
			// block-level index): split off only the new maximum so the
			// left leaf stays full — the paper's "leaf nodes are kept
			// full" behaviour.
			mid = len(n.keys) - 1
		}
		right := &node{leaf: true,
			keys: append([]types.Value(nil), n.keys[mid:]...),
			refs: append([]uint64(nil), n.refs[mid:]...),
			next: n.next}
		n.keys = n.keys[:mid]
		n.refs = n.refs[:mid]
		n.next = right
		return right, right.keys[0]
	}

	i := sort.Search(len(n.keys), func(i int) bool {
		return types.Compare(n.keys[i], key) > 0
	})
	newKid, sepKey := t.insert(n.kids[i], key, ref)
	if newKid == nil {
		return nil, types.Null
	}
	n.keys = append(n.keys, types.Null)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sepKey
	n.kids = append(n.kids, nil)
	copy(n.kids[i+2:], n.kids[i+1:])
	n.kids[i+1] = newKid
	if len(n.kids) <= t.order+1 {
		return nil, types.Null
	}
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &node{
		keys: append([]types.Value(nil), n.keys[mid+1:]...),
		kids: append([]*node(nil), n.kids[mid+1:]...)}
	n.keys = n.keys[:mid]
	n.kids = n.kids[:mid+1]
	return right, sep
}

// leafFor returns the first leaf that could contain key, descending by
// lower bound so duplicates to the left are not skipped.
func (t *Tree) leafFor(key types.Value) *node {
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool {
			return types.Compare(n.keys[i], key) >= 0
		})
		// Descend left of the first separator >= key: duplicates of key
		// may live in that subtree.
		n = n.kids[i]
	}
	return n
}

// Range calls fn for every entry with lo <= key <= hi, in key order;
// returning false stops early.
func (t *Tree) Range(lo, hi types.Value, fn func(key types.Value, ref uint64) bool) {
	n := t.leafFor(lo)
	for n != nil {
		for i, k := range n.keys {
			if types.Compare(k, lo) < 0 {
				continue
			}
			if types.Compare(k, hi) > 0 {
				return
			}
			if !fn(k, n.refs[i]) {
				return
			}
		}
		n = n.next
	}
}

// Lookup returns the refs of all entries equal to key.
func (t *Tree) Lookup(key types.Value) []uint64 {
	var out []uint64
	t.Range(key, key, func(_ types.Value, ref uint64) bool {
		out = append(out, ref)
		return true
	})
	return out
}

// Scan calls fn over every entry in key order; returning false stops.
func (t *Tree) Scan(fn func(key types.Value, ref uint64) bool) {
	n := t.root
	for !n.leaf {
		n = n.kids[0]
	}
	for n != nil {
		for i, k := range n.keys {
			if !fn(k, n.refs[i]) {
				return
			}
		}
		n = n.next
	}
}

// Min returns the smallest key; ok is false for an empty tree.
func (t *Tree) Min() (types.Value, bool) {
	if t.size == 0 {
		return types.Null, false
	}
	n := t.root
	for !n.leaf {
		n = n.kids[0]
	}
	return n.keys[0], true
}

// Max returns the largest key; ok is false for an empty tree.
func (t *Tree) Max() (types.Value, bool) {
	if t.size == 0 {
		return types.Null, false
	}
	n := t.root
	for !n.leaf {
		n = n.kids[len(n.kids)-1]
	}
	return n.keys[len(n.keys)-1], true
}

// Height returns the tree height (a single leaf root is height 1); used
// by tests and the cost-model ablation.
func (t *Tree) Height() int {
	h := 1
	n := t.root
	for !n.leaf {
		h++
		n = n.kids[0]
	}
	return h
}
