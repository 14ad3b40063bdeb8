package sim

// This file holds the armed timeouts of Signal.WaitTimeout and
// Chan.RecvTimeout. A timeout is not an event in the scheduler: it belongs
// to the one wait that armed it and dies with that wait. A process parks on
// one thing at a time, so it has at most one armed, and the engine keeps the
// armed ones in a binary min-heap of processes ordered by the (at, seq) key
// an event would have had — seq drawn from Engine.seq at arming, so every
// other event keeps its number. Proc.tmoIdx is the back-index that lets
// advance remove the entry the moment any live wake-up for the process is
// dispatched (reply, grant, kill, script step). The dispatch loop merges the
// heap's head with the scheduler's head in exact (at, seq) order, so a
// timeout that does fire is dispatched where its event would have been.
//
// The heap holds what is in flight — a few dozen entries at the open loop's
// saturated rungs, where the scheduler used to carry every 2 s call timeout
// for 2 s after its call had returned, 119 000 of them — so a sift is a few
// levels over hot cache lines: 0.6 % of an openloop-pm-mix CPU profile.

// tmoLess orders armed processes by their timeout's (at, seq).
//
//simlint:hotpath
func tmoLess(a, b *Proc) bool {
	if a.tmoAt != b.tmoAt {
		return a.tmoAt < b.tmoAt
	}
	return a.tmoSeq < b.tmoSeq
}

// armTimeout arms p's timeout d from now: the timeout arm of the waiter
// queues, called between stamping the park and parking.
//
//simlint:hotpath
func (p *Proc) armTimeout(d Time) {
	if p.tmoIdx != 0 {
		panic("sim: process " + p.name + " arms a second timeout")
	}
	e := p.eng
	e.seq++
	p.tmoAt, p.tmoSeq = e.now+d, e.seq
	e.tmo = append(e.tmo, p)
	e.tmoUp(len(e.tmo) - 1)
}

// disarm removes p's armed timeout from the heap.
//
//simlint:hotpath
func (e *Engine) disarm(p *Proc) {
	h := e.tmo
	i, n := int(p.tmoIdx)-1, len(h)-1
	p.tmoIdx = 0
	last := h[n]
	h[n] = nil
	e.tmo = h[:n]
	if i == n {
		return
	}
	h[i] = last
	e.tmoDown(i) // leaves last's back-index current
	if last.tmoIdx == int32(i+1) {
		e.tmoUp(i)
	}
}

// tmoUp sifts the entry at i towards the root, keeping back-indices current.
//
//simlint:hotpath
func (e *Engine) tmoUp(i int) {
	h := e.tmo
	p := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !tmoLess(p, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].tmoIdx = int32(i + 1)
		i = parent
	}
	h[i] = p
	p.tmoIdx = int32(i + 1)
}

// tmoDown sifts the entry at i towards the leaves.
//
//simlint:hotpath
func (e *Engine) tmoDown(i int) {
	h := e.tmo
	n := len(h)
	p := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && tmoLess(h[r], h[child]) {
			child = r
		}
		if !tmoLess(h[child], p) {
			break
		}
		h[i] = h[child]
		h[i].tmoIdx = int32(i + 1)
		i = child
	}
	h[i] = p
	p.tmoIdx = int32(i + 1)
}
