package sim

// This file implements the engine's production scheduler, sized to the
// traffic it carries: half of all events are wake-ups for the current
// instant, nearly all the rest are due within 65 µs, and 5–16 are pending on
// average (DESIGN.md §5 has the counts). Two tiers keep the exact (at, seq)
// total order of the reference heap:
//
//   - the lane: a FIFO of event values due at the queue's current instant,
//     cur. Engine.seq is monotone, so arrival order is seq order, and an
//     insert or a pop is one copy of the event;
//   - the heap: a binary min-heap, by (at, seq), of everything else.
//
// The head of the queue is the smaller of the two heads by an explicit
// (at, seq) comparison, so the order rests on nothing beyond "every lane
// entry is due at cur, in seq order". cur moves only when a heap entry later
// than it is popped; the lane is empty then, because its head would have been
// the smaller.
//
// The heap's storage is structure-of-arrays: it sifts 24-byte pointer-free
// entries — the ordering key plus a handle into the event pool — while the
// 64-byte event payload, with its pointer fields, is written once at insert
// and read once at pop. Sifts move no pointers and meet no GC write barriers.
// Retained slice capacity is the free list: steady-state scheduling and
// dispatch allocate nothing.
type eventQueue struct {
	cur  Time
	lane []event // due at cur, consumed from head
	head int

	heap []entry
	// pool holds the payloads behind heap entries, addressed by entry.idx;
	// free lists the vacant slots. A slot is written at insert, zeroed at pop
	// (so the pool does not pin callbacks or delivered values) and recycled.
	pool []event
	free []int32
}

// entry is a heap element: the (at, seq) ordering key plus the pool index of
// the event payload.
type entry struct {
	at  Time
	seq uint64
	idx int32
}

// before reports whether the key (at, seq) sorts at or before (bat, bseq):
// the (time, sequence) order of eventLess, on bare keys.
//
//simlint:hotpath
func before(at Time, seq uint64, bat Time, bseq uint64) bool {
	return at < bat || at == bat && seq <= bseq
}

// len reports the number of pending events.
//
//simlint:hotpath
func (q *eventQueue) len() int { return len(q.lane) - q.head + len(q.heap) }

// insert schedules ev. Its seq must exceed that of every event inserted
// before it.
//
//simlint:hotpath
func (q *eventQueue) insert(ev event) {
	if ev.at == q.cur {
		q.lane = append(q.lane, ev)
		return
	}
	en := entry{at: ev.at, seq: ev.seq}
	if n := len(q.free); n > 0 {
		en.idx = q.free[n-1]
		q.free = q.free[:n-1]
		q.pool[en.idx] = ev
	} else {
		en.idx = int32(len(q.pool))
		q.pool = append(q.pool, ev)
	}
	h := append(q.heap, en)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if before(h[parent].at, h[parent].seq, en.at, en.seq) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = en
	q.heap = h
}

// popBefore removes the earliest pending event into *ev and reports true, if
// there is one and its key sorts at or before (bat, bseq); otherwise it
// leaves the queue as it is.
//
//simlint:hotpath
func (q *eventQueue) popBefore(bat Time, bseq uint64, ev *event) bool {
	if q.head < len(q.lane) {
		l := &q.lane[q.head]
		if len(q.heap) == 0 || before(q.cur, l.seq, q.heap[0].at, q.heap[0].seq) {
			if !before(q.cur, l.seq, bat, bseq) {
				return false
			}
			*ev = *l
			*l = event{} // the lane must not pin callbacks or delivered values
			q.head++
			if q.head == len(q.lane) {
				q.lane, q.head = q.lane[:0], 0
			}
			return true
		}
	} else if len(q.heap) == 0 {
		return false
	}
	h := q.heap
	top := h[0]
	if !before(top.at, top.seq, bat, bseq) {
		return false
	}
	if top.at > q.cur {
		q.cur = top.at // the lane is empty: its head would have sorted first
	}
	*ev = q.pool[top.idx]
	q.pool[top.idx] = event{}
	q.free = append(q.free, top.idx)
	// Sift the last entry down from the root.
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.heap = h
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && before(h[r].at, h[r].seq, h[child].at, h[child].seq) {
			child = r
		}
		if before(last.at, last.seq, h[child].at, h[child].seq) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if n > 0 {
		h[i] = last
	}
	return true
}
