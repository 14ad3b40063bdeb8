package dp2

import (
	"runtime"
	"testing"
	"unsafe"
)

// The dirty queue is an entQueue: a FIFO of blocks that a push never
// copies. These tests hold the order across block boundaries, through
// prepend and through an empty queue, and what the blocks cost.

// queued returns n entries keyed from first on, each with a stamp of its own.
func queued(first uint64, n int) []queueEnt {
	ents := make([]queueEnt, n)
	for i := range ents {
		ents[i] = queueEnt{key: first + uint64(i), blen: 64, stamp: uint32(first) + uint32(i) + 1}
	}
	return ents
}

// popKeys pops n entries and fails unless their keys run from first on.
func popKeys(t *testing.T, q *entQueue, first uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if q.len() == 0 {
			t.Fatalf("queue empty after %d of %d pops", i, n)
		}
		if k := q.front().key; k != first+uint64(i) {
			t.Fatalf("front is key %d, want %d", k, first+uint64(i))
		}
		if e := q.pop(); e.key != first+uint64(i) {
			t.Fatalf("popped key %d, want %d", e.key, first+uint64(i))
		}
	}
}

func TestEntQueueFIFOAcrossBlocks(t *testing.T) {
	var q entQueue
	const n = 3 * entBlockMax
	for _, e := range queued(0, n) {
		q.push(e)
	}
	if q.len() != n {
		t.Fatalf("len = %d, want %d", q.len(), n)
	}
	if len(q.blocks) < 8 {
		t.Fatalf("%d entries in %d blocks; the test wants several full-size ones", n, len(q.blocks))
	}
	// Interleave pops with pushes so both ends cross block boundaries.
	popped, next := uint64(0), uint64(n)
	for popped < n {
		popKeys(t, &q, popped, 100)
		popped += 100
		for _, e := range queued(next, 50) {
			q.push(e)
		}
		next += 50
	}
	popKeys(t, &q, popped, q.len())
	if q.len() != 0 {
		t.Fatalf("len = %d after draining", q.len())
	}
}

// TestEntQueuePrepend re-queues a batch the way the destager does when the
// volume is down: popped from the front, written back ahead of the rest,
// within one block (into the slots it left) and across a block boundary
// (as a new front block).
func TestEntQueuePrepend(t *testing.T) {
	var q entQueue
	ents := queued(0, 200)
	for _, e := range ents {
		q.push(e)
	}
	for _, batch := range [][2]int{{0, 10}, {10, 20}, {20, 60}} { // blocks end at 16 and 48
		popKeys(t, &q, uint64(batch[0]), batch[1]-batch[0])
		q.prepend(ents[batch[0]:batch[1]])
		popKeys(t, &q, uint64(batch[0]), batch[1]-batch[0])
		if q.len() != 200-batch[1] {
			t.Fatalf("len = %d after batch %v, want %d", q.len(), batch, 200-batch[1])
		}
	}
	// Onto a drained queue, and onto one that never held anything.
	popKeys(t, &q, 60, 140)
	q.prepend(ents[:5])
	q.push(ents[5])
	popKeys(t, &q, 0, 6)
	var fresh entQueue
	fresh.prepend(ents[:3])
	fresh.push(ents[3])
	popKeys(t, &fresh, 0, 4)
}

// TestEntQueueRefillsAfterEmpty: a queue popped empty refills from the start
// of the block it kept, in order, with no new block.
func TestEntQueueRefillsAfterEmpty(t *testing.T) {
	var q entQueue
	for round := uint64(0); round < 5; round++ {
		for _, e := range queued(round*10, 10) {
			q.push(e)
		}
		popKeys(t, &q, round*10, 10)
		if q.len() != 0 || len(q.blocks) != 1 || q.head != 0 || cap(q.blocks[0]) != entBlockMin {
			t.Fatalf("round %d: len %d, %d blocks, head %d, first block cap %d; want 0, 1, 0, %d",
				round, q.len(), len(q.blocks), q.head, cap(q.blocks[0]), entBlockMin)
		}
	}
}

// TestEntQueueKeepsOneSpareBlock: once a full-size block is popped empty it
// is kept as the spare, and the live slots of the blocks are exactly the
// queued entries. What the queue pins is nothing: an entry holds no pointer
// (TestCacheShapes).
func TestEntQueueKeepsOneSpareBlock(t *testing.T) {
	var q entQueue
	for _, e := range queued(0, 3*entBlockMax+500) {
		q.push(e)
	}
	for q.len() > 700 {
		q.pop()
	}
	live := 0
	for i, b := range q.blocks {
		if i == 0 {
			live -= q.head
		}
		live += len(b)
	}
	if live != q.len() {
		t.Fatalf("%d live slots, len %d", live, q.len())
	}
	if q.spare == nil || len(q.spare) != 0 || cap(q.spare) != entBlockMax {
		t.Fatalf("spare is %d of %d entries, want an empty %d-entry block kept after a full-size block was exhausted",
			len(q.spare), cap(q.spare), entBlockMax)
	}
	popKeys(t, &q, 3*entBlockMax+500-700, 700)
}

// TestEntQueueCostsItsLengthOnce: a queue that is only pushed — a takeover's
// requeue, or a primary's dirtyq while the data volume is down — allocates
// about its final length. A slice grown by append allocated ~3.8 times that.
func TestEntQueueCostsItsLengthOnce(t *testing.T) {
	const n = 64000
	var q entQueue
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		q.push(queueEnt{key: uint64(i)})
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(&q)
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(1.15 * n * unsafe.Sizeof(queueEnt{}))
	t.Logf("%d pushes allocated %d bytes in %d objects (%.2f × the entries)", n, got, after.Mallocs-before.Mallocs,
		float64(got)/float64(n*unsafe.Sizeof(queueEnt{})))
	if got > limit {
		t.Errorf("%d pushes allocated %d bytes, budget %d", n, got, limit)
	}
}

// TestEntQueueChurnAllocatesNothing: a queue with a standing backlog that
// is pushed and popped alike — a primary's dirtyq under steady load —
// allocates nothing once its blocks are full-size: each exhausted block is
// the spare the next full tail takes.
func TestEntQueueChurnAllocatesNothing(t *testing.T) {
	var q entQueue
	key := uint64(0)
	churn := func(n int) {
		for i := 0; i < n; i++ {
			q.push(queueEnt{key: key})
			key++
			q.pop()
		}
	}
	for i := 0; i < 3000; i++ {
		q.push(queueEnt{key: key})
		key++
	}
	churn(10 * entBlockMax) // warm-up: retire the ramp's smaller blocks
	if allocs := testing.AllocsPerRun(20, func() { churn(entBlockMax) }); allocs != 0 {
		t.Errorf("a block's worth of push/pop churn allocates %.1f objects, want 0", allocs)
	}
	if q.len() != 3000 {
		t.Fatalf("len = %d, want 3000", q.len())
	}
	popKeys(t, &q, key-3000, 3000)
}
