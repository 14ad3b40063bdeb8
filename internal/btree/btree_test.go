package btree

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEmptyTree(t *testing.T) {
	tr := New[[]byte]()
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if _, ok := tr.Get(42); ok {
		t.Error("Get on empty tree found a value")
	}
	if tr.Ref(42) != nil {
		t.Error("Ref on empty tree found a value")
	}
	if tr.Delete(42) {
		t.Error("Delete on empty tree reported success")
	}
	if _, ok := tr.Min(); ok {
		t.Error("Min on empty tree")
	}
	if _, ok := tr.Max(); ok {
		t.Error("Max on empty tree")
	}
	if tr.Has(42) {
		t.Error("Has on empty tree")
	}
	tr.CheckInvariants()
}

func TestSetGet(t *testing.T) {
	tr := New[[]byte]()
	for i := uint64(0); i < 1000; i++ {
		if !tr.Set(i*7%1000, []byte(fmt.Sprint(i*7%1000))) {
			t.Fatalf("Set(%d) reported existing key", i*7%1000)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", tr.Len())
	}
	for i := uint64(0); i < 1000; i++ {
		v, ok := tr.Get(i)
		if !ok || string(v) != fmt.Sprint(i) {
			t.Fatalf("Get(%d) = %q,%v", i, v, ok)
		}
	}
	tr.CheckInvariants()
}

func TestSetReplace(t *testing.T) {
	tr := New[[]byte]()
	tr.Set(5, []byte("old"))
	if tr.Set(5, []byte("new")) {
		t.Error("replacement reported as new insert")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
	v, _ := tr.Get(5)
	if string(v) != "new" {
		t.Errorf("value = %q", v)
	}
}

func TestDeleteEverything(t *testing.T) {
	tr := New[[]byte]()
	const n = 2000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, k := range perm {
		tr.Set(uint64(k), nil)
	}
	tr.CheckInvariants()
	perm2 := rand.New(rand.NewSource(2)).Perm(n)
	for i, k := range perm2 {
		if !tr.Delete(uint64(k)) {
			t.Fatalf("Delete(%d) failed", k)
		}
		if i%100 == 0 {
			tr.CheckInvariants()
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d after deleting all", tr.Len())
	}
	tr.CheckInvariants()
}

func TestAscendRange(t *testing.T) {
	tr := New[[]byte]()
	for i := uint64(0); i < 100; i += 2 {
		tr.Set(i, nil)
	}
	var got []uint64
	tr.Ascend(10, 20, func(it Item[[]byte]) bool {
		got = append(got, it.Key)
		return true
	})
	want := []uint64{10, 12, 14, 16, 18, 20}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Ascend(10,20) = %v, want %v", got, want)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New[[]byte]()
	for i := uint64(0); i < 100; i++ {
		tr.Set(i, nil)
	}
	count := 0
	tr.Ascend(0, 99, func(it Item[[]byte]) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("visited %d items, want 5", count)
	}
}

func TestMinMax(t *testing.T) {
	tr := New[[]byte]()
	for _, k := range []uint64{50, 10, 90, 30, 70} {
		tr.Set(k, nil)
	}
	if mn, _ := tr.Min(); mn.Key != 10 {
		t.Errorf("Min = %d", mn.Key)
	}
	if mx, _ := tr.Max(); mx.Key != 90 {
		t.Errorf("Max = %d", mx.Key)
	}
}

// TestMinMaxHasDeep reads the ends of a three-level tree, each found by
// descending through internal nodes, and asks Has about present and absent
// keys at every level.
func TestMinMaxHasDeep(t *testing.T) {
	tr := New[[]byte]()
	const n = 10000
	for i := uint64(0); i < n; i++ {
		tr.Set(2*i+1, nil)
	}
	if d := tr.depth(); d < 3 {
		t.Fatalf("depth %d, want at least 3", d)
	}
	if mn, ok := tr.Min(); !ok || mn.Key != 1 {
		t.Errorf("Min = %d, %v; want 1", mn.Key, ok)
	}
	if mx, ok := tr.Max(); !ok || mx.Key != 2*n-1 {
		t.Errorf("Max = %d, %v; want %d", mx.Key, ok, 2*n-1)
	}
	// The root's separators, absent neighbours of each, and the ends.
	for _, it := range tr.root.items {
		if !tr.Has(it.Key) || tr.Has(it.Key+1) || tr.Has(it.Key-1) {
			t.Errorf("Has around root separator %d is wrong", it.Key)
		}
	}
	if tr.Has(0) || !tr.Has(1) || !tr.Has(2*n-1) || tr.Has(2*n) {
		t.Error("Has at the ends is wrong")
	}
}

// TestSetReplacesThePromotedKey replaces the value of the key that the
// split its own Set makes promotes: the median of a full leaf that cannot
// lend, here the root's first child, which has no left sibling.
func TestSetReplacesThePromotedKey(t *testing.T) {
	tr := New[[]byte]()
	for k := uint64(0); k < 200; k++ {
		tr.Set(k, []byte("old"))
	}
	first := tr.root.kids[0]
	if len(first.items) != maxKeys {
		t.Fatalf("the first leaf holds %d items, want a full one", len(first.items))
	}
	median := first.items[maxKeys/2].Key
	if tr.Set(median, []byte("new")) {
		t.Fatal("replacing the median reported a new key")
	}
	if tr.root.items[0].Key != median {
		t.Fatalf("the root's first separator is %d, want the promoted median %d", tr.root.items[0].Key, median)
	}
	if v, ok := tr.Get(median); !ok || string(v) != "new" || tr.Len() != 200 {
		t.Errorf("after the replace Get(%d) = %q, %v and Len %d; want \"new\", true, 200", median, v, ok, tr.Len())
	}
	tr.CheckInvariants()
}

func TestLargeSequentialInsert(t *testing.T) {
	// Sequential keys are the hot-stock pattern (monotone record ids).
	tr := New[[]byte]()
	const n = 50000
	for i := uint64(0); i < n; i++ {
		tr.Set(i, nil)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	tr.CheckInvariants()
	count := 0
	prev := uint64(0)
	tr.Ascend(0, n, func(it Item[[]byte]) bool {
		if count > 0 && it.Key != prev+1 {
			t.Fatalf("scan out of order at %d", it.Key)
		}
		prev = it.Key
		count++
		return true
	})
	if count != n {
		t.Errorf("scan visited %d, want %d", count, n)
	}
}

// model is a tree beside the map it must behave like.
type model struct {
	tr  *Tree[[]byte]
	ref map[uint64][]byte
}

func newModel() *model { return &model{tr: New[[]byte](), ref: make(map[uint64][]byte)} }

// apply sets or deletes k in both, reporting whether the tree answered as
// the map did. Ref must then be nil for a deleted key, and for a set one
// point at its value: a value written through it is what Get returns.
func (m *model) apply(k uint64, del bool) bool {
	_, had := m.ref[k]
	if del {
		delete(m.ref, k)
		return m.tr.Delete(k) == had && m.tr.Ref(k) == nil
	}
	v := []byte(fmt.Sprint(k))
	m.ref[k] = v
	if m.tr.Set(k, v) != !had {
		return false
	}
	p := m.tr.Ref(k)
	if p == nil || string(*p) != string(v) {
		return false
	}
	w := []byte(fmt.Sprint(k, "'"))
	*p = w
	m.ref[k] = w
	got, ok := m.tr.Get(k)
	return ok && string(got) == string(w)
}

// agrees checks the tree's structure, size and in-order scan against the map.
func (m *model) agrees() bool {
	m.tr.CheckInvariants()
	if m.tr.Len() != len(m.ref) {
		return false
	}
	var keys []uint64
	for k := range m.ref {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	// Every key finds its value, and the key after it, when absent, nothing.
	for _, k := range keys {
		if p := m.tr.Ref(k); p == nil || string(*p) != string(m.ref[k]) {
			return false
		}
		if _, in := m.ref[k+1]; !in && m.tr.Ref(k+1) != nil {
			return false
		}
	}
	var scanned []uint64
	m.tr.Ascend(0, ^uint64(0), func(it Item[[]byte]) bool {
		scanned = append(scanned, it.Key)
		return true
	})
	return fmt.Sprint(keys) == fmt.Sprint(scanned)
}

// Property: the tree behaves exactly like a map plus sortedness, under an
// arbitrary interleaving of sets and deletes.
func TestTreeMatchesMapProperty(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		type op struct {
			Key uint64
			Del bool
		}
		prop := func(ops []op) bool {
			m := newModel()
			for _, o := range ops {
				if !m.apply(o.Key%512, o.Del) { // force collisions
					return false
				}
			}
			return m.agrees()
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Error(err)
		}
	})
	// The shape every workload inserts in: ascending runs at the right edge
	// of up to four interleaved streams, deep enough that full internal
	// nodes lend too, with runs of deletes mixed in that merge nodes which
	// were lent to.
	t.Run("appends", func(t *testing.T) {
		type op struct {
			Stream uint8
			Del    bool
			At     uint32 // where a delete run starts, modulo the stream's length
			N      uint16 // run length, modulo 2048: a few runs grow a third level
		}
		prop := func(ops []op) bool {
			m := newModel()
			var next [4]uint64
			for _, o := range ops {
				s := o.Stream % 4
				start, n := next[s], uint64(o.N%2048)
				if o.Del {
					start = uint64(o.At) % (next[s] + 1)
				} else {
					next[s] += n
				}
				for k := start; k < start+n; k++ {
					if !m.apply(uint64(s)<<32|k, o.Del) {
						return false
					}
				}
				m.tr.CheckInvariants()
			}
			return m.agrees()
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Error(err)
		}
	})
}

// TestDeleteHeavyMatchesMap grows a tree of three levels by appends and
// then shrinks it to nothing under mostly deletes, with sets, lends, splits
// and merges mixed in at every level. After every operation the tree must
// answer as a map does, hold its invariants, and keep nothing in a vacated
// item or child slot.
func TestDeleteHeavyMatchesMap(t *testing.T) {
	m := newModel()
	rng := rand.New(rand.NewSource(3))
	ops := 0
	step := func(k uint64, del bool) {
		t.Helper()
		ops++
		if !m.apply(k, del) {
			t.Fatalf("op %d, key %d (delete %v): the tree answered unlike the map", ops, k, del)
		}
		m.tr.CheckInvariants()
		if s := vacated(m.tr, zeroBytesItem); s != "" {
			t.Fatalf("op %d, key %d (delete %v): %s", ops, k, del, s)
		}
	}
	const n = 4500
	for k := uint64(0); k < n; k++ {
		step(k, false)
	}
	if d := m.tr.depth(); d < 3 {
		t.Fatalf("depth %d after %d appends, want 3", d, n)
	}
	// Four in five operations delete, nearly always a present key, so the
	// tree shrinks by about 0.6 keys an operation until it is empty.
	for m.tr.Len() > 0 {
		k := uint64(rng.Intn(n + 200))
		del := rng.Intn(5) != 0
		if del && rng.Intn(16) != 0 {
			keys := make([]uint64, 0, len(m.ref))
			m.tr.Ascend(0, ^uint64(0), func(it Item[[]byte]) bool {
				keys = append(keys, it.Key)
				return true
			})
			k = keys[rng.Intn(len(keys))]
		}
		step(k, del)
	}
	if !m.agrees() || m.tr.root != nil {
		t.Error("the emptied tree does not agree with the emptied map")
	}
}

// eachNode calls fn on every node of t.
func eachNode[V any](t *Tree[V], fn func(*node[V])) {
	var walk func(n *node[V])
	walk = func(n *node[V]) {
		fn(n)
		if !n.leaf() {
			for _, c := range n.kids[:len(n.items)+1] {
				walk(c)
			}
		}
	}
	if t.root != nil {
		walk(t.root)
	}
}

// vacated describes the first slot of t that still holds something past
// its node's length, an item slot that zero does not call empty or a child
// slot that is not nil, or returns "" when there is none.
func vacated[V any](t *Tree[V], zero func(Item[V]) bool) string {
	var found string
	eachNode(t, func(n *node[V]) {
		if found != "" {
			return
		}
		for _, it := range n.items[len(n.items):cap(n.items)] {
			if !zero(it) {
				found = fmt.Sprintf("a node of %d items keeps item %d past its length", len(n.items), it.Key)
				return
			}
		}
		if !n.leaf() {
			for j, c := range n.kids[len(n.items)+1:] {
				if c != nil {
					found = fmt.Sprintf("a node of %d items keeps a child in slot %d", len(n.items), len(n.items)+1+j)
					return
				}
			}
		}
	})
	return found
}

func zeroPtrItem(it Item[*int]) bool     { return it == Item[*int]{} }
func zeroBytesItem(it Item[[]byte]) bool { return it.Key == 0 && it.Value == nil }

// TestVacatedSlotsAreCleared holds that no node pins a value past its
// length: splits, leaf deletes, rotations in both directions and merges each
// zero the slots they vacate, so an aborted row (or the body it retains) is
// garbage once the tree lets go of it.
func TestVacatedSlotsAreCleared(t *testing.T) {
	tr := New[*int]()
	v := new(int)
	check := func(phase string) {
		t.Helper()
		tr.CheckInvariants()
		if s := vacated(tr, zeroPtrItem); s != "" {
			t.Fatalf("%s: %s", phase, s)
		}
	}
	// An internal node's lend leaves its slot vacated only until the next
	// leaf split below it, so look often.
	for k := uint64(0); k < 10000; k++ {
		tr.Set(k, v)
		if k%100 == 0 {
			check("appends")
		}
	}
	for k := uint64(0); k < 10000; k += 3 {
		tr.Delete(k)
	}
	check("every third key deleted")
	// Abort-shaped: a run appended at the edge, then deleted again.
	for round := uint64(0); round < 20; round++ {
		for k := uint64(10000); k < 10100; k++ {
			tr.Set(k, v)
		}
		for k := uint64(10099); k >= 10050; k-- {
			tr.Delete(k)
		}
	}
	check("aborted tails")
	for k := uint64(2000); k < 8000; k++ {
		tr.Delete(k)
	}
	check("a range deleted")
}

// leafFill returns the share of t's leaf slots that hold an item.
func leafFill[V any](t *Tree[V]) float64 {
	var items, leaves int
	eachNode(t, func(n *node[V]) {
		if n.leaf() {
			items += len(n.items)
			leaves++
		}
	})
	return float64(items) / float64(leaves*maxKeys)
}

// row16 has the shape of the DP2's cached row: 16 bytes, one pointer.
type row16 struct {
	data *byte
	n, m uint32
}

// appendFill inserts n keys into a fresh tree of v and returns its leaf fill
// and the bytes an item cost.
func appendFill[V any](n uint64, key func(uint64) uint64, v V) (fill, perItem float64) {
	tr := New[V]()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(0); i < n; i++ {
		tr.Set(key(i), v)
	}
	runtime.ReadMemStats(&after)
	tr.CheckInvariants()
	return leafFill(tr), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestAppendsFillLeaves holds the lending rule to what it is for: under the
// append shapes of the workloads, leaves fill before they split, and the
// tree costs about one full leaf's bytes per 63 items. With the plain 31/31
// split every leaf but the last stays half full, and a split node regrows
// its items by append: 56 B an item with pointer values. The DP2 stores its
// 16-byte rows by value: a 24-byte item, 62 to a leaf whose header and items
// are one 1 536-byte block, ~25 B an item with the internal levels.
func TestAppendsFillLeaves(t *testing.T) {
	const n = 100000
	for _, tc := range []struct {
		name string
		key  func(i uint64) uint64
	}{
		{"one ascending stream", func(i uint64) uint64 { return i }},
		// The hot-stock drivers' d<<40|n, two drivers taking turns.
		{"two interleaved streams", func(i uint64) uint64 { return i%2<<40 | i/2 }},
		// A loadgen shard's keys: its own sequence and the cross-shard
		// blocks of the three other homes, each seq*nShards+shard.
		{"four strided streams", func(i uint64) uint64 { return (i%4<<40+i/4)*4 + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, shape := range []struct {
				name    string
				run     func() (float64, float64)
				perItem float64 // bound on the bytes an item costs
			}{
				{"pointer values", func() (float64, float64) { return appendFill(n, tc.key, new(int)) }, 20},
				{"16-byte values", func() (float64, float64) { return appendFill(n, tc.key, row16{}) }, 26},
			} {
				fill, perItem := shape.run()
				t.Logf("%s: leaves %.1f %% full, %.1f B an item", shape.name, 100*fill, perItem)
				if fill < 0.95 {
					t.Errorf("%s: leaves are %.1f %% full, want at least 95 %%: a full node split instead of lending", shape.name, 100*fill)
				}
				if perItem > shape.perItem {
					t.Errorf("%s: %.1f B an item, want at most %.0f: nodes are half empty or regrow", shape.name, perItem, shape.perItem)
				}
			}
		})
	}
}

// blockSink keeps the blocks TestBlockFitsItsSizeClass allocates on the
// heap.
var blockSink any

// TestBlockFitsItsSizeClass pins the node block for the 24-byte items of
// the DP2's 16-byte rows and the 32-byte items of []byte values. The node
// header is 32 bytes, and Go gives an object of more than 512 B that holds
// pointers an 8-byte malloc header. A row leaf is 32 + 62 × 24 + 8 = 1 528 B,
// in the 1 536-byte size class; a []byte leaf is 32 + 62 × 32 + 8 = 2 024 B,
// in the 2 048-byte one. A 48-byte header (two slice headers) pushes the row
// leaf into the 1 792-byte class, and a 63rd slot pushes both up a class.
func TestBlockFitsItsSizeClass(t *testing.T) {
	const mallocHeader = 8
	if got := unsafe.Sizeof(Item[row16]{}); got != 24 {
		t.Fatalf("an item of a 16-byte value is %d bytes, want 24", got)
	}
	if a, b := unsafe.Sizeof(node[row16]{}), unsafe.Sizeof(node[[]byte]{}); a != 32 || b != 32 {
		t.Errorf("a node header is %d bytes for rows and %d for []byte, want 32", a, b)
	}
	for _, tc := range []struct {
		name  string
		size  uintptr
		class uint64
		alloc func() any
	}{
		{"16-byte rows", unsafe.Sizeof(block[row16]{}), 1536, func() any { return newNode[row16](false) }},
		{"[]byte values", unsafe.Sizeof(block[[]byte]{}), 2048, func() any { return newNode[[]byte](false) }},
	} {
		if got := tc.size + mallocHeader; got > uintptr(tc.class) {
			t.Errorf("%s: a block with its malloc header is %d bytes, more than the %d-byte size class", tc.name, got, tc.class)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		blockSink = tc.alloc()
		runtime.ReadMemStats(&after)
		if objs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; objs != 1 || bytes != tc.class {
			t.Errorf("%s: a leaf is %d objects of %d bytes, want one of %d", tc.name, objs, bytes, tc.class)
		}
	}
	blockSink = nil
}

// TestLeafSplitAllocatesOneObject holds that a split-born leaf is one
// allocation, its header and items together, and that an insert that splits
// nothing allocates nothing. The keys ascend at the right edge, so each full
// last leaf splits once its left sibling is full too.
func TestLeafSplitAllocatesOneObject(t *testing.T) {
	tr := New[row16]()
	leaves := func() (count int) {
		eachNode(tr, func(n *node[row16]) {
			if n.leaf() {
				count++
			}
		})
		return count
	}
	var k uint64
	for ; k < 2*maxKeys; k++ {
		tr.Set(k, row16{})
	}
	depth, splits := tr.depth(), 0
	var before, after runtime.MemStats
	for ; k < 30*maxKeys; k++ {
		was := leaves()
		runtime.ReadMemStats(&before)
		tr.Set(k, row16{})
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs
		switch now := leaves(); {
		case now == was+1:
			splits++
			if allocs != 1 {
				t.Fatalf("key %d split a leaf with %d allocations, want 1", k, allocs)
			}
		case allocs != 0:
			t.Fatalf("key %d split nothing and made %d allocations, want 0", k, allocs)
		}
	}
	if tr.depth() != depth || splits < 20 {
		t.Fatalf("depth %d → %d, %d leaf splits: the keys no longer split leaves under one root", depth, tr.depth(), splits)
	}
	tr.CheckInvariants()
}

// TestInternalSplitAllocatesTwoObjects holds that splitting a full internal
// node makes two objects: the new node and its items in one block, and its
// child array.
func TestInternalSplitAllocatesTwoObjects(t *testing.T) {
	tr := New[row16]()
	// Ascending keys fill every node but the right edge: past 4 000 of
	// them the root's first child is a full internal node.
	for k := uint64(0); tr.depth() < 3 || len(tr.root.items) < 2; k++ {
		tr.Set(k, row16{})
	}
	if child := tr.root.kids[0]; child.leaf() || len(child.items) != maxKeys {
		t.Fatalf("the root's first child holds %d items, leaf %v: want a full internal node", len(child.items), child.leaf())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.root.splitChild(0)
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 2 {
		t.Errorf("an internal split made %d allocations, want 2", allocs)
	}
	tr.CheckInvariants()
	if s := vacated(tr, func(it Item[row16]) bool { return it == Item[row16]{} }); s != "" {
		t.Error(s)
	}
}

// TestSmallTreeCostsWhatItHolds holds the first root leaf to append
// growth: a tree of a few rows (a crash-matrix cell puts about eight in
// each DP2 partition) is not charged a full node block.
func TestSmallTreeCostsWhatItHolds(t *testing.T) {
	for _, n := range []int{1, 5, 20} {
		tr := New[row16]()
		for k := 0; k < n; k++ {
			tr.Set(uint64(k), row16{})
		}
		if c := cap(tr.root.items); c >= 2*n {
			t.Errorf("a tree of %d items has room for %d", n, c)
		}
	}
}

// BenchmarkTreeInsertSequential reports the bytes an ascending insert costs
// the tree (B/op: one insert an op).
func BenchmarkTreeInsertSequential(b *testing.B) {
	tr := New[[]byte]()
	val := make([]byte, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Set(uint64(i), val)
	}
}

func BenchmarkTreeInsertRandom(b *testing.B) {
	tr := New[[]byte]()
	rng := rand.New(rand.NewSource(1))
	val := make([]byte, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Set(rng.Uint64(), val)
	}
}

func BenchmarkTreeGet(b *testing.B) {
	tr := New[[]byte]()
	for i := uint64(0); i < 1<<16; i++ {
		tr.Set(i, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(uint64(i) & (1<<16 - 1))
	}
}
