package sim

import "math/bits"

// This file implements the engine's production scheduler: a hierarchical
// timing wheel. The simulated workload's event mix is sharply bimodal —
// microsecond-scale fabric and NPMU completions on one side, far-out timers
// on the other. A binary heap pays O(log n) on every operation with n
// inflated by the far-out ones; the wheel pays amortized O(1) per event.
//
// The wheel holds events, and an event cannot be taken back: once inserted
// it is placed again each time the cursor closes in on it (a 2 s timer goes
// level 3, 2, 1, 0, ready bucket) and is dispatched, stale or not. So the
// timeouts of timed waits — Signal.WaitTimeout, Chan.RecvTimeout: the 2 s
// call timeout and 500 ms lock timeout armed for a reply that arrives within
// microseconds — are not events. The wait that arms one owns it: it sits in
// the engine's heap of armed timeouts (timeout.go) and is removed the moment
// its process is woken, so the wheel never sees the 38–53 timeouts of a
// hot-stock transaction that used to ride it for 2 s each, some 70 000 of
// them resident at 900 tx/s. What the outer levels still hold are the timers
// that are events because they do fire: Wait deadlines (DP2's write-back
// interval, retry and poll pauses, open-loop arrival gaps, disk service
// times) and whatever Schedule / After put there (takeover delays, fault
// plans) — a handful per store. A timeout that does fire re-enters the wheel
// as an ordinary wake-up at its own instant; nextTime's horizon keeps the
// cursor from running past that instant beforehand.
//
// Layout: numLevels wheels of numSlots slots each, slotBits bits of the
// timestamp per level. Level 0 is nanosecond-granular (one timestamp per
// slot per rotation), so a level-0 slot's current-window events all share
// one timestamp; level l spans 1<<(slotBits*(l+1)) ns. Events further out
// than the top span go to an overflow min-heap and migrate into the wheel
// when the cursor comes within range.
//
// Storage is structure-of-arrays: buckets hold 24-byte pointer-free
// entries — the (at, seq) ordering key plus a handle into the event pool —
// while the 64-byte event payload (with its pointer fields) is written
// once at insert and read once at pop. Cascades and sorts move only
// entries, so redistribution copies a third of the bytes and triggers no
// GC write barriers.
//
// Ordering contract: popReady yields events in exactly (at, seq) order —
// the same total order as the reference heap — because (a) the cursor only
// ever advances to a lower bound of every pending event's timestamp, so no
// event is passed over, (b) a slot's bucket is re-placed against the new
// cursor whenever its digit becomes current, pushing events down until
// they surface in the ready bucket at exactly their timestamp, and (c) the
// ready bucket is sorted by seq (all its events share one timestamp).
// Events from a future rotation that alias an occupied slot are detected
// at expiry (their delta is still positive) and simply re-placed.
const (
	slotBits  = 8
	numSlots  = 1 << slotBits
	slotMask  = numSlots - 1
	numLevels = 6
	// spanTop is the horizon of the top wheel (~78 h of virtual time);
	// events at or beyond it wait in the overflow heap.
	spanTop = Time(1) << (slotBits * numLevels)
)

// entry is a wheel bucket element: the (at, seq) ordering key plus the
// pool index of the event payload. Entries are pointer-free by design —
// see the structure-of-arrays note above.
type entry struct {
	at  Time
	seq uint64
	idx int32
}

// entryLess orders entries by (time, sequence), mirroring eventLess.
//
//simlint:hotpath
func entryLess(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// wheel is the hierarchical timing wheel. The zero value is ready to use.
type wheel struct {
	// cur is the scheduler cursor: no pending event is earlier. It can run
	// ahead of Engine.now after a deadline-limited RunUntil; inserting
	// before it rewinds the cursor (rare, and only between runs).
	cur Time

	levels [numLevels][numSlots][]entry
	occ    [numLevels][numSlots / 64]uint64

	// pool holds event payloads addressed by entry.idx; free lists the
	// vacant slots. A slot is written at insert, zeroed at pop (so the
	// pool does not pin callbacks or delivered values) and recycled.
	pool []event
	free []int32

	// ready holds the entries due at exactly cur, consumed from readyHead.
	ready       []entry
	readyHead   int
	readySorted bool

	// ovf is a min-heap (by entryLess) of entries at least spanTop out.
	ovf []entry

	// scratch is the spare bucket backing rotated through cascades so
	// steady-state redistribution allocates nothing.
	scratch []entry

	count  int // all pending events
	wcount int // events resident in level buckets
}

// alloc stores ev in the pool and returns its handle.
//
//simlint:hotpath
func (w *wheel) alloc(ev event) int32 {
	if n := len(w.free); n > 0 {
		idx := w.free[n-1]
		w.free = w.free[:n-1]
		w.pool[idx] = ev
		return idx
	}
	w.pool = append(w.pool, ev)
	return int32(len(w.pool) - 1)
}

// take reads and vacates the pool slot behind a popped entry.
//
//simlint:hotpath
func (w *wheel) take(idx int32) event {
	ev := w.pool[idx]
	w.pool[idx] = event{}
	w.free = append(w.free, idx)
	return ev
}

// levelOf picks the level whose span covers delta (0 < delta < spanTop).
//
//simlint:hotpath
func levelOf(delta Time) int {
	return (bits.Len64(uint64(delta)) - 1) / slotBits
}

// insert schedules ev, rewinding the cursor first if ev lands before it.
//
//simlint:hotpath
func (w *wheel) insert(ev event) {
	if ev.at < w.cur {
		w.rewind(ev.at)
	}
	w.place(entry{at: ev.at, seq: ev.seq, idx: w.alloc(ev)})
	w.count++
}

// place routes an entry (with at >= cur) to the ready bucket, a level slot,
// or the overflow heap. It does not touch count.
//
//simlint:hotpath
func (w *wheel) place(en entry) {
	delta := en.at - w.cur
	switch {
	case delta == 0:
		if n := len(w.ready); n > w.readyHead && en.seq < w.ready[n-1].seq {
			w.readySorted = false
		}
		w.ready = append(w.ready, en)
	case delta < spanTop:
		lvl := levelOf(delta)
		slot := int(uint64(en.at)>>(uint(lvl)*slotBits)) & slotMask
		w.levels[lvl][slot] = append(w.levels[lvl][slot], en)
		w.occ[lvl][slot>>6] |= 1 << uint(slot&63)
		w.wcount++
	default:
		w.ovfPush(en)
	}
}

// rewind moves the cursor back to at (engine code inserted an event before
// the cursor, which can only happen after a deadline-limited run stopped
// short of the next event). Ready entries are no longer current and are
// re-placed against the earlier cursor; level buckets keep their absolute
// slots and self-correct at expiry.
func (w *wheel) rewind(at Time) {
	w.cur = at
	if w.readyHead >= len(w.ready) {
		w.ready = w.ready[:0]
		w.readyHead = 0
		w.readySorted = true
		return
	}
	pend := append(w.scratch[:0], w.ready[w.readyHead:]...)
	w.ready = w.ready[:0]
	w.readyHead = 0
	w.readySorted = true
	for i := range pend {
		w.place(pend[i])
	}
	w.scratch = pend[:0]
}

// nextTime advances the cursor to the exact timestamp of the earliest
// pending event, fills the ready bucket with every event due then, and
// returns that event's (at, seq) key. The cursor never advances past horizon
// — the earliest armed timeout, which the engine dispatches itself and whose
// wake-up it then inserts at that instant, at or after the cursor instead of
// behind it: ok is false when nothing is pending, or nothing by horizon.
// Idempotent once the ready bucket is non-empty.
//
//simlint:hotpath
func (w *wheel) nextTime(horizon Time) (at Time, seq uint64, ok bool) {
	for {
		if w.readyHead < len(w.ready) {
			if !w.readySorted {
				w.sortReady()
			}
			return w.cur, w.ready[w.readyHead].seq, true
		}
		if w.count == 0 {
			return 0, 0, false
		}
		// Lower-bound candidate over the levels' next occupied slots,
		// bottom up. Once a candidate falls inside the cursor's current
		// level-(lvl+1) window it cannot be beaten: any higher-level
		// candidate differs from the cursor in a digit above lvl, so it
		// starts at or beyond that window's end.
		var best Time
		found := false
		if w.wcount > 0 {
			for lvl := 0; lvl < numLevels; lvl++ {
				if ws, ok := w.scan(lvl); ok && (!found || ws < best) {
					best, found = ws, true
				}
				if found {
					shift := uint(lvl+1) * slotBits
					if uint64(best)>>shift == uint64(w.cur)>>shift {
						break
					}
				}
			}
		}
		if len(w.ovf) > 0 && (!found || w.ovf[0].at <= best) {
			best, found = w.ovf[0].at, true
		}
		if !found {
			panic("sim: timing wheel lost an event")
		}
		if best > horizon {
			return 0, 0, false // best is a lower bound: nothing is due by horizon
		}
		w.advanceTo(best)
		// Pull overflow entries that are now within the wheel horizon.
		for len(w.ovf) > 0 && w.ovf[0].at-w.cur < spanTop {
			w.place(w.ovfPop())
		}
	}
}

// popReady removes and returns the head of the ready bucket. Callers must
// have seen nextTime return ok.
//
//simlint:hotpath
func (w *wheel) popReady() event {
	en := w.ready[w.readyHead]
	w.readyHead++
	if w.readyHead == len(w.ready) {
		w.ready = w.ready[:0]
		w.readyHead = 0
		w.readySorted = true
	}
	w.count--
	return w.take(en.idx)
}

// sortReady insertion-sorts the live portion of the ready bucket by seq.
// All entries share one timestamp; the bucket is nearly sorted already
// (only cascaded events can arrive out of order), so this is close to a
// single verification pass.
func (w *wheel) sortReady() {
	r := w.ready[w.readyHead:]
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && r[j].seq < r[j-1].seq; j-- {
			r[j], r[j-1] = r[j-1], r[j]
		}
	}
	w.readySorted = true
}

// scan returns the window start of level lvl's next occupied slot, walking
// the occupancy bitmap circularly from the digit after the cursor's. Slots
// reached after wrapping (including the cursor's own digit) belong to the
// level's next rotation. The result is a lower bound on every pending
// event in the level: the cursor digit's current window holds no events
// (advanceTo cascades it), so anything found sits at or beyond its slot's
// window start.
//
//simlint:hotpath
func (w *wheel) scan(lvl int) (Time, bool) {
	shift := uint(lvl) * slotBits
	d := int(uint64(w.cur)>>shift) & slotMask
	slot, wrapped, ok := w.nextOccupied(lvl, d)
	if !ok {
		return 0, false
	}
	// rotBase: cur with digits 0..lvl cleared.
	span := uint64(1) << (shift + slotBits)
	rotBase := uint64(w.cur) &^ (span - 1)
	ws := rotBase | uint64(slot)<<shift
	if wrapped {
		ws += span
		if ws > uint64(maxTime) {
			// Beyond the representable horizon: nothing pending can live
			// there, so the occupied slot holds only events this rotation
			// already surfaced. Treat as empty.
			return 0, false
		}
	}
	return Time(ws), true
}

// nextOccupied finds the first occupied slot of level lvl strictly after
// digit d, wrapping around to d itself. wrapped reports whether the result
// was reached by wrapping past slot numSlots-1.
//
//simlint:hotpath
func (w *wheel) nextOccupied(lvl, d int) (slot int, wrapped, ok bool) {
	bm := &w.occ[lvl]
	from := d + 1
	if from < numSlots {
		if s, ok := scanBitmap(bm, from, numSlots); ok {
			return s, false, true
		}
	}
	if s, ok := scanBitmap(bm, 0, from); ok {
		return s, true, true
	}
	return 0, false, false
}

// scanBitmap returns the first set bit in [from, to) of a 256-bit bitmap.
//
//simlint:hotpath
func scanBitmap(bm *[numSlots / 64]uint64, from, to int) (int, bool) {
	for word := from >> 6; word <= (to-1)>>6; word++ {
		v := bm[word]
		if word == from>>6 {
			v &= ^uint64(0) << uint(from&63)
		}
		if word == (to-1)>>6 && to&63 != 0 {
			v &= (1 << uint(to&63)) - 1
		}
		if v != 0 {
			return word<<6 + bits.TrailingZeros64(v), true
		}
	}
	return 0, false
}

// advanceTo moves the cursor to t and re-places the bucket of every level
// whose digit became current, highest level first so pushed-down events
// keep cascading toward the ready bucket.
//
//simlint:hotpath
func (w *wheel) advanceTo(t Time) {
	old := w.cur
	w.cur = t
	if w.wcount == 0 {
		return
	}
	diff := uint64(old) ^ uint64(t)
	if diff == 0 {
		return
	}
	top := (bits.Len64(diff) - 1) / slotBits
	if top >= numLevels {
		top = numLevels - 1
	}
	for lvl := top; lvl >= 0; lvl-- {
		slot := int(uint64(t)>>(uint(lvl)*slotBits)) & slotMask
		if w.occ[lvl][slot>>6]&(1<<uint(slot&63)) == 0 {
			continue
		}
		b := w.levels[lvl][slot]
		w.levels[lvl][slot] = w.scratch[:0]
		w.occ[lvl][slot>>6] &^= 1 << uint(slot&63)
		w.wcount -= len(b)
		for i := range b {
			w.place(b[i])
		}
		// Entries are pointer-free, so the vacated backing needs no
		// zeroing at all; the next cascade that borrows it overwrites.
		w.scratch = b[:0]
	}
}

// ovfPush inserts en into the overflow min-heap.
//
//simlint:hotpath
func (w *wheel) ovfPush(en entry) {
	q := append(w.ovf, en)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(&q[i], &q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	w.ovf = q
}

// ovfPop removes and returns the overflow heap's minimum.
//
//simlint:hotpath
func (w *wheel) ovfPop() entry {
	q := w.ovf
	en := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		child := l
		if r < n && entryLess(&q[r], &q[l]) {
			child = r
		}
		if !entryLess(&q[child], &q[i]) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	w.ovf = q
	return en
}
