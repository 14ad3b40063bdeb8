// Package hot exercises hotalloc: inside //simlint:hotpath functions the
// analyzer flags fmt calls, non-ellipsis variadic calls, interface boxing
// (arguments, assignments, declarations, composite literals, conversions),
// and capturing closures. Cold functions and ellipsis forwarding are exempt.
package hot

import "fmt"

func logf(format string, args ...interface{}) { _, _ = format, args }

func sum(xs ...int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func sink(v interface{}) { _ = v }

type box struct {
	label string
	v     interface{}
}

// hot is the certified-zero-alloc function under test.
//
//simlint:hotpath
func hot(i int, args []interface{}) {
	_ = fmt.Sprintf("event %d", i) // want `fmt\.Sprintf allocates its format state and result on every call`
	logf("event %d", i)            // want `variadic call allocates a fresh \.\.\.interface\{\} slice per call and boxes each argument`
	_ = sum(1, 2, 3)               // want `variadic call allocates a fresh \.\.\.int slice per call`
	sink(i)                        // want `argument boxes int into interface\{\}`
	_ = box{label: "x", v: i}      // want `composite literal boxes int into interface\{\}`
	var e interface{} = i          // want `declaration boxes int into interface\{\}`
	e = i                          // want `assignment boxes int into interface\{\}`
	_ = any(i)                     // want `conversion boxes int into any`
	f := func() int { return i }   // want `closure captures i`
	_ = f
	_ = e

	// Negatives: forwarding an existing slice with ... allocates nothing
	// new, a non-capturing literal needs no closure object, and interface-
	// to-interface assignment does not box.
	logf("event", args...)
	g := func() int { return 1 }
	_ = g
	var e2 interface{} = e
	_ = e2

	// Pointer-shaped operands sit in the interface's data word: no box. A
	// struct value of the same type is still copied to the heap.
	b := box{label: "x"}
	sink(&b)
	sink(map[int]int(nil))
	sink(make(chan int))
	sink(cold)
	e = &b
	sink(b) // want `argument boxes .*box into interface\{\}`

	//simlint:allow hotalloc -- fixture: demonstrates generic suppression
	_ = fmt.Sprint(i)
}

// cold has no hotpath directive; the same constructs are fine here.
func cold(i int) string {
	sink(i)
	return fmt.Sprintf("event %d", i)
}
