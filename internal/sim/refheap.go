package sim

// refHeap is the engine's first scheduler — a hand-specialized binary
// min-heap over the value event slice — retained as the reference
// implementation the event queue (eventq.go) is differentially tested
// against. Tests switch an engine onto it with useReferenceHeap; production
// engines never run it: sifting 64-byte pointer-carrying events to the root
// and back for every same-instant wake-up measured 16–20 % slower end to end.
type refHeap struct {
	q []event
	// tap, when a differential test sets it, sees every event popped, in
	// dispatch order: the schedule's full transcript. (An armed timeout is
	// not an event; one that expires shows as the wake-up it queues.)
	tap func(ev *event)
}

// push inserts ev into the heap (sift-up over the value slice).
//
//simlint:hotpath
func (h *refHeap) push(ev event) {
	q := append(h.q, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&q[i], &q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	h.q = q
}

// pop removes and returns the minimum event. The vacated slot is zeroed so
// the heap does not pin callbacks or delivered values.
//
//simlint:hotpath
func (h *refHeap) pop() event {
	q := h.q
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		child := l
		if r < n && eventLess(&q[r], &q[l]) {
			child = r
		}
		if !eventLess(&q[child], &q[i]) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	h.q = q
	if h.tap != nil {
		h.tap(&ev)
	}
	return ev
}

// peek returns the minimum event's key without removing it.
//
//simlint:hotpath
func (h *refHeap) peek() (at Time, seq uint64, ok bool) {
	if len(h.q) == 0 {
		return 0, 0, false
	}
	return h.q[0].at, h.q[0].seq, true
}

// len reports the number of queued events.
func (h *refHeap) len() int { return len(h.q) }

// eventLess orders events by (time, sequence) — the deterministic FIFO
// tie-break for same-time events.
//
//simlint:hotpath
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
