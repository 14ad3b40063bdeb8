package btree

import (
	"fmt"
	"sort"
	"testing"
)

// FuzzTreeOps decodes its input into runs of Set, Delete, write-through-Ref
// and Ascend over keys below fuzzKeys, and holds the tree to a map after
// every run: same answers, same in-order scan, invariants intact and no
// vacated slot keeping an item or a child. Each run is four bytes: the
// operation in the low two bits of the first, a start key in the next two
// and a length in the last, so a few dozen bytes of ascending Set runs grow
// a tree of three levels.
func FuzzTreeOps(f *testing.F) {
	// Ascending Set runs to depth 3, then Delete runs through the middle.
	var deep []byte
	for k := 0; k < 4200; k += 200 {
		deep = append(deep, opSet, byte(k), byte(k>>8), 199)
	}
	for k := 1000; k < 3600; k += 130 {
		deep = append(deep, opDelete, byte(k), byte(k>>8), 255)
	}
	f.Add(deep)
	f.Add([]byte{})
	f.Add([]byte{opSet, 5, 0, 10, opRef, 7, 0, 3, opAscend, 0, 0, 20, opDelete, 6, 0, 2, opAscend, 4, 0, 9})
	f.Add([]byte{opDelete, 1, 0, 0, opRef, 1, 0, 0, opSet, 0xff, 0xff, 0xff, opSet, 0, 0, 0xff, opAscend, 0xf0, 0, 0xff})
	f.Fuzz(func(t *testing.T, in []byte) {
		tr := New[[]byte]()
		ref := make(map[uint64][]byte)
		for len(in) >= 4 {
			op, start, n := in[0]&3, uint64(in[1])|uint64(in[2])<<8, uint64(in[3])+1
			in = in[4:]
			start %= fuzzKeys
			end := min(start+n, fuzzKeys)
			switch op {
			case opSet:
				for k := start; k < end; k++ {
					v := fuzzValue(k, 0)
					_, had := ref[k]
					ref[k] = v
					if tr.Set(k, v) == had {
						t.Fatalf("Set(%d) reported new %v, the map had it: %v", k, !had, had)
					}
				}
			case opDelete:
				for k := start; k < end; k++ {
					_, had := ref[k]
					delete(ref, k)
					if tr.Delete(k) != had {
						t.Fatalf("Delete(%d) reported %v, the map had it: %v", k, !had, had)
					}
				}
			case opRef:
				for k := start; k < end; k++ {
					p := tr.Ref(k)
					want, had := ref[k]
					if (p != nil) != had || had && string(*p) != string(want) {
						t.Fatalf("Ref(%d) disagrees with the map (present %v)", k, had)
					}
					if p != nil {
						*p = fuzzValue(k, 1)
						ref[k] = *p
					}
				}
			case opAscend:
				var got, want []uint64
				tr.Ascend(start, end-1, func(it Item[[]byte]) bool {
					if string(it.Value) != string(ref[it.Key]) {
						t.Fatalf("Ascend gave key %d the value %q, the map %q", it.Key, it.Value, ref[it.Key])
					}
					got = append(got, it.Key)
					return true
				})
				for k := range ref {
					if k >= start && k < end {
						want = append(want, k)
					}
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("Ascend(%d, %d) = %v, the map holds %v", start, end-1, got, want)
				}
			}
			tr.CheckInvariants()
			if s := vacated(tr, zeroBytesItem); s != "" {
				t.Fatal(s)
			}
			if tr.Len() != len(ref) {
				t.Fatalf("Len %d, the map holds %d", tr.Len(), len(ref))
			}
		}
		m := &model{tr: tr, ref: ref}
		if !m.agrees() {
			t.Fatal("the tree does not agree with the map")
		}
	})
}

// fuzzValue is the value FuzzTreeOps stores under k: the key and which
// write made it, a Set (0) or a write through Ref (1).
func fuzzValue(k uint64, write byte) []byte { return []byte{byte(k), byte(k >> 8), write} }

// The operations FuzzTreeOps decodes, and the key range they cover.
const (
	opSet = iota
	opDelete
	opRef
	opAscend

	fuzzKeys = 8192
)
