// Package btree implements a generic in-memory B-tree keyed by uint64. It is the storage structure behind the
// simulated DP2 key-sequenced files: inserts land here (the disk process
// cache) and are destaged to data volumes asynchronously.
//
// The implementation is a classic order-m B-tree with preemptive splitting
// on the way down, supporting point lookup, insert/replace, delete and
// in-order range scans.
//
// A full child with room in its left sibling lends before it splits: when
// the key being inserted sorts above the child's first item, that item
// rotates up through the parent's separator into the sibling, and the child
// takes the key. Every insert the workloads issue appends at the right edge
// of its partition (hot-stock record ids, loadgen's per-shard sequences,
// the recovery scenario's keys), where a plain split leaves the left half
// at 31 of 62 slots for good; lending fills every leaf but the last two at
// each edge. Split and root-growth nodes are born at full capacity, each
// node and its items one block, and a vacated slot is always zeroed, so a
// node never regrows and never pins a value it no longer holds. The first
// root leaf alone grows by append, so a tree of a few items costs what it
// holds.
//
// A node's header is 32 bytes: its items slice and a pointer to a fixed
// array of child slots, nil on a leaf. An internal node's children are the
// first len(items)+1 slots of that array, which is an allocation of its
// own, so a leaf carries no room for children.
package btree

import "slices"

// maxKeys is a full node's item count; minKeys is the fewest a node other
// than the root holds. A split of a full node leaves 31 and 30 items, and a
// merge of two underfull siblings and their separator makes at most 61.
// A split-born node's block is the 32-byte header and 62 items, and Go
// adds an 8-byte malloc header to an object of more than 512 B that holds
// pointers. For the 24-byte items of the DP2's 16-byte rows that is
// 32 + 1 488 + 8 = 1 528 B, in the 1 536-byte size class; for the 32-byte
// items of recovery's []byte images it is 32 + 1 984 + 8 = 2 024 B, in the
// 2 048-byte class, where 63 slots would fall into the 2 304-byte one.
const (
	maxKeys = 62
	minKeys = maxKeys/2 - 1
)

// Item is one key/value pair.
type Item[V any] struct {
	Key   uint64
	Value V
}

type node[V any] struct {
	items []Item[V] // sorted by Key
	// kids holds an internal node's children in its first len(items)+1
	// slots, every later slot nil. It is nil on a leaf.
	kids *[maxKeys + 1]*node[V]
}

// block is a split-born node and its items in one allocation: items is
// buf[:0:maxKeys].
type block[V any] struct {
	n   node[V]
	buf [maxKeys]Item[V]
}

func (n *node[V]) leaf() bool { return n.kids == nil }

// insertKid moves n's children from slot i on up by one and puts c in slot
// i. It runs before n's items gain the separator that comes with c, while
// n has len(n.items)+1 children.
func (n *node[V]) insertKid(i int, c *node[V]) {
	nk := len(n.items) + 1
	copy(n.kids[i+1:nk+1], n.kids[i:nk])
	n.kids[i] = c
}

// deleteKid removes n's child in slot i, moves the later ones down by one
// and clears the slot that leaves empty. It runs before n's items lose the
// separator that goes with the child.
func (n *node[V]) deleteKid(i int) {
	nk := len(n.items) + 1
	copy(n.kids[i:nk-1], n.kids[i+1:nk])
	n.kids[nk-1] = nil
}

// Tree is a B-tree with values of type V. The zero value is an empty tree
// ready to use.
type Tree[V any] struct {
	root *node[V]
	size int
}

// New returns an empty tree.
func New[V any]() *Tree[V] { return &Tree[V]{} }

// Len returns the number of items stored.
func (t *Tree[V]) Len() int { return t.size }

// find locates key within n.items, returning the index and whether it is
// an exact match.
func (n *node[V]) find(key uint64) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.items[mid].Key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.items) && n.items[lo].Key == key
}

// Get returns the value stored under key.
func (t *Tree[V]) Get(key uint64) (V, bool) {
	if v := t.Ref(key); v != nil {
		return *v, true
	}
	var zero V
	return zero, false
}

// Ref returns a pointer to the value stored under key, or nil when key is
// absent; writes through it change the stored value. It is valid only until
// the next Set or Delete, which may split, lend, shift or merge items to
// other slots.
func (t *Tree[V]) Ref(key uint64) *V {
	n := t.root
	for n != nil {
		i, eq := n.find(key)
		if eq {
			return &n.items[i].Value
		}
		if n.leaf() {
			return nil
		}
		n = n.kids[i]
	}
	return nil
}

// Has reports whether key is present.
func (t *Tree[V]) Has(key uint64) bool {
	return t.Ref(key) != nil
}

// newNode returns an empty node with room for a full node's items, and for
// its children too when internal, so it never regrows. The node and its
// items are one block; an internal node's children are a second object.
func newNode[V any](internal bool) *node[V] {
	b := new(block[V])
	n := &b.n
	n.items = b.buf[:0:maxKeys]
	if internal {
		n.kids = new([maxKeys + 1]*node[V])
	}
	return n
}

// splitChild splits n.kids[i] (which must be full) around its median.
func (n *node[V]) splitChild(i int) {
	child := n.kids[i]
	mid := maxKeys / 2
	median := child.items[mid]

	right := newNode[V](!child.leaf())
	right.items = append(right.items, child.items[mid+1:]...)
	if !child.leaf() {
		copy(right.kids[:], child.kids[mid+1:len(child.items)+1])
		clear(child.kids[mid+1:])
	}
	clear(child.items[mid:])
	child.items = child.items[:mid]

	n.insertKid(i+1, right)
	n.items = slices.Insert(n.items, i, median)
}

// lendLeft rotates n.kids[i]'s first item up through the separator into its
// left sibling, which must have room, and with it the first child when
// internal. Set lends to make room in a full child instead of splitting it;
// fixChild lends to top up an underfull left sibling.
func (n *node[V]) lendLeft(i int) {
	child, left := n.kids[i], n.kids[i-1]
	if !child.leaf() {
		left.kids[len(left.items)+1] = child.kids[0]
		child.deleteKid(0)
	}
	left.items = append(left.items, n.items[i-1])
	n.items[i-1] = child.items[0]
	child.items = slices.Delete(child.items, 0, 1)
}

// Set inserts or replaces the value under key, reporting whether the key
// was newly inserted.
func (t *Tree[V]) Set(key uint64, value V) bool {
	if t.root == nil {
		// The first leaf grows by append, so a tree of a few rows costs
		// what it holds; only split-born nodes start at full size.
		t.root = &node[V]{items: []Item[V]{{Key: key, Value: value}}}
		t.size = 1
		return true
	}
	if len(t.root.items) == maxKeys {
		old := t.root
		t.root = newNode[V](true)
		t.root.kids[0] = old
		t.root.splitChild(0)
	}
	n := t.root
	for {
		i, eq := n.find(key)
		if eq {
			n.items[i].Value = value
			return false
		}
		if n.leaf() {
			n.items = slices.Insert(n.items, i, Item[V]{Key: key, Value: value})
			t.size++
			return true
		}
		if child := n.kids[i]; len(child.items) == maxKeys {
			if i > 0 && len(n.kids[i-1].items) < maxKeys && key > child.items[0].Key {
				n.lendLeft(i)
			} else {
				n.splitChild(i)
				if key == n.items[i].Key {
					n.items[i].Value = value
					return false
				}
				if key > n.items[i].Key {
					i++
				}
			}
		}
		n = n.kids[i]
	}
}

// Delete removes key, reporting whether it was present.
func (t *Tree[V]) Delete(key uint64) bool {
	if t.root == nil {
		return false
	}
	deleted := t.root.delete(key)
	if len(t.root.items) == 0 {
		if t.root.leaf() {
			t.root = nil
		} else {
			t.root = t.root.kids[0]
		}
	}
	if deleted {
		t.size--
	}
	return deleted
}

func (n *node[V]) delete(key uint64) bool {
	i, eq := n.find(key)
	if n.leaf() {
		if !eq {
			return false
		}
		n.items = slices.Delete(n.items, i, i+1)
		return true
	}
	if eq {
		// Replace with the predecessor from the left subtree, ensuring the
		// subtree can spare an item.
		if len(n.kids[i].items) > minKeys {
			pred := n.kids[i].max()
			n.items[i] = pred
			return n.kids[i].delete(pred.Key)
		}
		if len(n.kids[i+1].items) > minKeys {
			succ := n.kids[i+1].min()
			n.items[i] = succ
			return n.kids[i+1].delete(succ.Key)
		}
		n.merge(i)
		return n.kids[i].delete(key)
	}
	// Descend, topping the child up to > minKeys first.
	if len(n.kids[i].items) == minKeys {
		n.fixChild(i)
		// fixChild may have merged and shifted; recompute.
		i, eq = n.find(key)
		if eq {
			return n.delete(key)
		}
	}
	return n.kids[i].delete(key)
}

func (n *node[V]) min() Item[V] {
	for !n.leaf() {
		n = n.kids[0]
	}
	return n.items[0]
}

func (n *node[V]) max() Item[V] {
	for !n.leaf() {
		n = n.kids[len(n.items)]
	}
	return n.items[len(n.items)-1]
}

// fixChild ensures n.kids[i] has more than minKeys items, borrowing from a
// sibling or merging.
func (n *node[V]) fixChild(i int) {
	if i > 0 && len(n.kids[i-1].items) > minKeys {
		// Rotate right: left sibling's max moves up, separator moves down.
		child, left := n.kids[i], n.kids[i-1]
		last := len(left.items) - 1
		if !left.leaf() {
			child.insertKid(0, left.kids[last+1])
			left.kids[last+1] = nil
		}
		child.items = slices.Insert(child.items, 0, n.items[i-1])
		n.items[i-1] = left.items[last]
		left.items = slices.Delete(left.items, last, last+1)
		return
	}
	if i < len(n.items) && len(n.kids[i+1].items) > minKeys {
		// Rotate left: the right sibling lends its first item.
		n.lendLeft(i + 1)
		return
	}
	if i == len(n.items) {
		i--
	}
	n.merge(i)
}

// merge folds n.kids[i+1] and the separator into n.kids[i].
func (n *node[V]) merge(i int) {
	child, right := n.kids[i], n.kids[i+1]
	if !child.leaf() {
		copy(child.kids[len(child.items)+1:], right.kids[:len(right.items)+1])
	}
	child.items = append(child.items, n.items[i])
	child.items = append(child.items, right.items...)
	n.deleteKid(i + 1)
	n.items = slices.Delete(n.items, i, i+1)
}

// Ascend calls fn for every item with key in [from, to] in increasing key
// order, stopping early if fn returns false.
func (t *Tree[V]) Ascend(from, to uint64, fn func(Item[V]) bool) {
	if t.root != nil {
		t.root.ascend(from, to, fn)
	}
}

func (n *node[V]) ascend(from, to uint64, fn func(Item[V]) bool) bool {
	i, _ := n.find(from)
	for ; i < len(n.items); i++ {
		if !n.leaf() && !n.kids[i].ascend(from, to, fn) {
			return false
		}
		if n.items[i].Key > to {
			return true
		}
		if n.items[i].Key >= from && !fn(n.items[i]) {
			return false
		}
	}
	if !n.leaf() {
		return n.kids[len(n.items)].ascend(from, to, fn)
	}
	return true
}

// Min returns the smallest item, if any.
func (t *Tree[V]) Min() (Item[V], bool) {
	if t.root == nil || t.size == 0 {
		return Item[V]{}, false
	}
	return t.root.min(), true
}

// Max returns the largest item, if any.
func (t *Tree[V]) Max() (Item[V], bool) {
	if t.root == nil || t.size == 0 {
		return Item[V]{}, false
	}
	return t.root.max(), true
}

// depth returns the tree height (for invariant checks).
func (t *Tree[V]) depth() int {
	d := 0
	for n := t.root; n != nil; {
		d++
		if n.leaf() {
			break
		}
		n = n.kids[0]
	}
	return d
}

// CheckInvariants panics with a description if the tree violates B-tree
// structure rules; tests call it after mutation sequences.
func (t *Tree[V]) CheckInvariants() {
	if t.root == nil {
		return
	}
	depth := t.depth()
	var walk func(n *node[V], level int, min, max uint64, hasMin, hasMax bool) int
	walk = func(n *node[V], level int, min, max uint64, hasMin, hasMax bool) int {
		if n != t.root && len(n.items) < minKeys {
			panic("btree: underfull node")
		}
		if len(n.items) > maxKeys {
			panic("btree: overfull node")
		}
		count := len(n.items)
		for i := 0; i < len(n.items); i++ {
			k := n.items[i].Key
			if i > 0 && n.items[i-1].Key >= k {
				panic("btree: unsorted node")
			}
			if hasMin && k <= min {
				panic("btree: key below subtree minimum")
			}
			if hasMax && k >= max {
				panic("btree: key above subtree maximum")
			}
		}
		if n.leaf() {
			if level != depth {
				panic("btree: leaves at different depths")
			}
			return count
		}
		for i, c := range n.kids[:len(n.items)+1] {
			if c == nil {
				panic("btree: missing child")
			}
			cmin, chasMin := min, hasMin
			cmax, chasMax := max, hasMax
			if i > 0 {
				cmin, chasMin = n.items[i-1].Key, true
			}
			if i < len(n.items) {
				cmax, chasMax = n.items[i].Key, true
			}
			count += walk(c, level+1, cmin, cmax, chasMin, chasMax)
		}
		return count
	}
	if got := walk(t.root, 1, 0, 0, false, false); got != t.size {
		panic("btree: size mismatch")
	}
}
