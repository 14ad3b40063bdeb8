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

// eachNode calls fn on every node of t.
func eachNode[V any](t *Tree[V], fn func(*node[V])) {
	var walk func(n *node[V])
	walk = func(n *node[V]) {
		fn(n)
		for _, c := range n.children {
			walk(c)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
}

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
		eachNode(tr, func(n *node[*int]) {
			for _, it := range n.items[len(n.items):cap(n.items)] {
				if it != (Item[*int]{}) {
					t.Fatalf("%s: a node keeps item %d past its length", phase, it.Key)
				}
			}
			for _, c := range n.children[len(n.children):cap(n.children)] {
				if c != nil {
					t.Fatalf("%s: a node keeps a child past its length", phase)
				}
			}
		})
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

// row24 has the shape of the DP2's cached row: 24 bytes, one pointer.
type row24 struct {
	data *byte
	loc  uint64
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
// 24-byte rows by value: a 32-byte item, 62 to a leaf whose header and items
// are one 2 048-byte block, ~33.3 B an item with the internal levels.
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
				{"24-byte values", func() (float64, float64) { return appendFill(n, tc.key, row24{}) }, 34},
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

// TestBlockFitsItsSizeClass pins the node block for the 32-byte items of
// the DP2's rows and of []byte values: the 48-byte header and 62 items are
// 2 032 B, and with Go's 8-byte malloc header (an object of more than 512 B
// that holds pointers carries one) the block fills the 2 048-byte size
// class. A wider header or a 63rd slot pushes every split-born node into the
// 2 304-byte class.
func TestBlockFitsItsSizeClass(t *testing.T) {
	const mallocHeader, sizeClass = 8, 2048
	if got := unsafe.Sizeof(Item[row24]{}); got != 32 {
		t.Fatalf("an item of a 24-byte value is %d bytes, want 32", got)
	}
	if a, b := unsafe.Sizeof(block[row24]{}), unsafe.Sizeof(block[[]byte]{}); a != b {
		t.Errorf("a block of 24-byte rows is %d bytes, of []byte %d: want the same", a, b)
	}
	if got := unsafe.Sizeof(block[row24]{}) + mallocHeader; got > sizeClass {
		t.Errorf("a block with its malloc header is %d bytes, more than the %d-byte size class", got, sizeClass)
	}
}

// TestLeafSplitAllocatesOneObject holds that a split-born leaf is one
// allocation, its header and items together, and that an insert that splits
// nothing allocates nothing. The keys ascend at the right edge, so each full
// last leaf splits once its left sibling is full too.
func TestLeafSplitAllocatesOneObject(t *testing.T) {
	tr := New[row24]()
	leaves := func() (count int) {
		eachNode(tr, func(n *node[row24]) {
			if n.leaf() {
				count++
			}
		})
		return count
	}
	var k uint64
	for ; k < 2*maxKeys; k++ {
		tr.Set(k, row24{})
	}
	depth, splits := tr.depth(), 0
	var before, after runtime.MemStats
	for ; k < 30*maxKeys; k++ {
		was := leaves()
		runtime.ReadMemStats(&before)
		tr.Set(k, row24{})
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

// TestSmallTreeCostsWhatItHolds holds the first root leaf to append
// growth: a tree of a few rows (a crash-matrix cell puts about eight in
// each DP2 partition) is not charged a full node block.
func TestSmallTreeCostsWhatItHolds(t *testing.T) {
	for _, n := range []int{1, 5, 20} {
		tr := New[row24]()
		for k := 0; k < n; k++ {
			tr.Set(uint64(k), row24{})
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
