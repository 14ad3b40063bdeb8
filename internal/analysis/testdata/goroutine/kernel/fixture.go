// Package kernel exercises goroutine in sim-critical, non-exempt code:
// sync imports, go statements, iter.Pull, select, and real channel
// construction must all be flagged; non-channel makes and push iterators
// are fine and justified kernel machinery is suppressed with
// //simlint:allow.
package kernel

import (
	"iter"
	"sync"        // want `import of "sync": real synchronization primitives race on the OS scheduler`
	"sync/atomic" // want `import of "sync/atomic": real synchronization primitives race on the OS scheduler`
)

var mu sync.Mutex
var counter atomic.Int64

func spawn() {
	go func() { counter.Add(1) }() // want `go statement spawns an OS-scheduled goroutine inside virtual-time code`
}

func channels() {
	ch := make(chan int, 4) // want `make\(chan\) creates a real channel`
	select {                // want `select resolves by real channel readiness, not virtual time`
	case v := <-ch:
		_ = v
	default:
	}
	mu.Lock()
	defer mu.Unlock()
}

func count(yield func(int) bool) {
	for i := 0; yield(i); i++ {
	}
}

func pulls() {
	next, stop := iter.Pull(count) // want `iter.Pull starts an OS-scheduled goroutine for the iterator`
	defer stop()
	next()
	next2, stop2 := iter.Pull2[int, int](func(func(int, int) bool) {}) // want `iter.Pull starts an OS-scheduled goroutine for the iterator`
	defer stop2()
	next2()
}

func pushIterator() int {
	// Ranging over a push iterator runs it on the caller's stack: no
	// goroutine, nothing to flag.
	var seq iter.Seq[int] = count
	for v := range seq {
		return v
	}
	return 0
}

func blessedCoroutine() {
	//simlint:allow goroutine -- fixture: stands in for the kernel's process stacks
	_, stop := iter.Pull(count)
	stop()
}

func notAChannel(n int) []int {
	// make on non-channel types is untouched.
	return make([]int, n)
}

func blessedMachinery() chan struct{} {
	//simlint:allow goroutine -- fixture: stands in for the kernel's coroutine plumbing
	return make(chan struct{})
}
