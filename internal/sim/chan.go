package sim

// waiter records a parked process waiting on a synchronization object.
// The blockID stamp lets queues lazily discard entries whose process has
// since been woken by something else (timeout, kill).
type waiter struct {
	p   *Proc
	id  uint64
	val interface{} // for blocked senders: the value being sent
}

//simlint:hotpath
func (w waiter) stale() bool {
	return w.p.blockID != w.id || w.p.state != procBlocked
}

// Chan is a simulated FIFO channel. With capacity 0 the channel is
// unbounded (sends never block); with capacity > 0 sends block when the
// buffer is full, providing backpressure. Receives always block until a
// value is available.
//
// Channel operations take zero virtual time; latency is modeled explicitly
// by the layers that use them (e.g. the network fabric).
type Chan struct {
	eng  *Engine
	name string
	cap  int // 0 = unbounded
	buf  vqueue
	rxq  wqueue // blocked receivers
	txq  wqueue // blocked senders (cap > 0 only)
	dead bool   // closed for simulation teardown
}

// NewChan returns an unbounded channel.
func (e *Engine) NewChan(name string) *Chan { return &Chan{eng: e, name: name} }

// NewBoundedChan returns a channel whose buffer holds at most capacity
// values; senders block when it is full. capacity must be > 0.
func (e *Engine) NewBoundedChan(name string, capacity int) *Chan {
	if capacity <= 0 {
		panic("sim: NewBoundedChan requires capacity > 0")
	}
	return &Chan{eng: e, name: name, cap: capacity}
}

// Len reports the number of buffered values.
func (c *Chan) Len() int { return c.buf.len() }

// popRx removes and returns the first non-stale blocked receiver.
//
//simlint:hotpath
func (c *Chan) popRx() (waiter, bool) {
	for c.rxq.len() > 0 {
		w := c.rxq.pop()
		if !w.stale() {
			return w, true
		}
	}
	return waiter{}, false
}

// popTx removes and returns the first non-stale blocked sender.
//
//simlint:hotpath
func (c *Chan) popTx() (waiter, bool) {
	for c.txq.len() > 0 {
		w := c.txq.pop()
		if !w.stale() {
			return w, true
		}
	}
	return waiter{}, false
}

// Send delivers v into the channel, blocking p while a bounded buffer is
// full. Values are received in FIFO order.
//
//simlint:hotpath
func (c *Chan) Send(p *Proc, v interface{}) {
	p.assertRunning("Chan.Send")
	if w, ok := c.popRx(); ok {
		// Hand directly to a waiting receiver.
		w.p.wake(w.id, v, true)
		return
	}
	if c.cap == 0 || c.buf.len() < c.cap {
		c.buf.push(v)
		return
	}
	// Buffer full: block until a receiver makes room.
	id := p.newBlockID()
	c.txq.push(waiter{p: p, id: id, val: v})
	p.park()
}

// TrySend is like Send but never blocks; it reports whether the value was
// accepted.
//
//simlint:hotpath
func (c *Chan) TrySend(v interface{}) bool {
	if w, ok := c.popRx(); ok {
		w.p.wake(w.id, v, true)
		return true
	}
	if c.cap == 0 || c.buf.len() < c.cap {
		c.buf.push(v)
		return true
	}
	return false
}

// Recv blocks p until a value is available and returns it.
func (c *Chan) Recv(p *Proc) interface{} {
	v, _ := c.RecvTimeout(p, -1)
	return v
}

// RecvTimeout blocks p until a value arrives or timeout elapses. A negative
// timeout means wait forever. ok is false on timeout.
//
//simlint:hotpath
func (c *Chan) RecvTimeout(p *Proc, timeout Time) (v interface{}, ok bool) {
	p.assertRunning("Chan.Recv")
	if v, ok = c.ArmRecv(p); ok {
		return v, true
	}
	if timeout >= 0 {
		p.armTimeout(timeout)
	}
	p.park()
	return p.rxVal, p.rxOK
}

// ArmRecv is the non-parking half of Recv, for p itself just before
// ParkScript or for its step function: it returns a buffered value, or
// queues p as a receiver so that the next value sent arrives as p's
// wake-up.
//
//simlint:hotpath
func (c *Chan) ArmRecv(p *Proc) (v interface{}, ok bool) {
	p.assertScript("Chan.ArmRecv")
	if v, ok = c.TryRecv(); ok {
		return v, true
	}
	c.rxq.push(waiter{p: p, id: p.newBlockID()})
	return nil, false
}

// Serve makes p the channel's server for the rest of its life: handle runs
// once per value, in arrival order, on whatever stack dispatches the
// delivery — p itself is never switched into again. handle must not block
// (it may TrySend, trigger signals, release resources). Serve returns only
// by unwinding: a kill ends the server like any parked process.
func (c *Chan) Serve(p *Proc, handle func(v interface{})) {
	c.ServeLegs(p, handleFunc(handle))
}

// Server handles a channel's values one at a time on the dispatching stack
// (Chan.ServeLegs). Handle starts a value: it reports true when the value is
// done, or false with the value's next leg armed through the non-parking
// primitives. Its wake-ups then go to Step, until one reports the value done,
// and only then is the next value taken. Neither may block.
type Server interface {
	Handle(p *Proc, v interface{}) (done bool)
	Stepper
}

// handleFunc is the Server of a handler that takes no legs.
type handleFunc func(v interface{})

//simlint:hotpath
func (h handleFunc) Handle(_ *Proc, v interface{}) bool {
	h(v)
	return true
}

func (h handleFunc) Step(*Proc) bool { panic("sim: wake-up for a server that arms no legs") }

// ServeLegs is Serve for values whose handling takes timed legs: p parks for
// good and s handles each value, legs and all, on whatever stack dispatches
// its wake-ups, exactly as if p had received, handled and parked leg by leg
// itself — the same events in the same slots with the same park stamps. A
// kill unwinds p out of ServeLegs; whatever leg s has in flight then must be
// released by a guard p deferred before calling it.
func (c *Chan) ServeLegs(p *Proc, s Server) {
	p.assertRunning("Chan.ServeLegs")
	ss := &serveScript{c: c, s: s}
	ss.next(p)
	p.ParkScript(ss)
}

// serveScript is the Stepper behind ServeLegs: take a value, walk its legs,
// take the next.
type serveScript struct {
	c    *Chan
	s    Server
	busy bool // a value's legs are in flight
}

//simlint:hotpath
func (ss *serveScript) Step(p *Proc) bool {
	if ss.busy {
		if !ss.s.Step(p) {
			return false
		}
		ss.busy = false
	} else if !ss.s.Handle(p, p.rxVal) {
		ss.busy = true
		return false
	}
	ss.next(p)
	return false
}

// next handles every buffered value that finishes at once and queues p as a
// receiver once the channel is empty, or stops at the first value that arms
// a leg.
//
//simlint:hotpath
func (ss *serveScript) next(p *Proc) {
	for {
		v, ok := ss.c.ArmRecv(p)
		if !ok {
			return
		}
		if !ss.s.Handle(p, v) {
			ss.busy = true
			return
		}
	}
}

// TryRecv returns a buffered value without blocking; ok is false if the
// channel is empty.
//
//simlint:hotpath
func (c *Chan) TryRecv() (v interface{}, ok bool) {
	if c.buf.len() == 0 {
		return nil, false
	}
	v = c.buf.pop()
	if w, wok := c.popTx(); wok {
		c.buf.push(w.val)
		w.p.wake(w.id, nil, true)
	}
	return v, true
}
