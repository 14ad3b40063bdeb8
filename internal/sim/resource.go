package sim

// Resource is a counted resource with a FIFO wait queue — the standard
// building block for service stations such as disk arms, CPUs and NIC DMA
// engines. Acquire takes one unit, blocking while none are free; Release
// returns one unit and admits the longest-waiting process.
type Resource struct {
	eng   *Engine
	name  string
	total int
	inUse int
	queue wqueue

	stats ResourceStats
}

// ResourceStats aggregates a resource's contention counters: every
// Acquire, how many of those had to queue, the virtual time spent
// queued, and the deepest queue observed. Waits and WaitTime count
// acquires that were actually granted after queueing; a process killed
// while parked never resumes, so its wait is not folded in.
type ResourceStats struct {
	Acquires int64
	Waits    int64
	WaitTime Time
	MaxQueue int
}

// NewResource returns a resource with the given number of units.
func (e *Engine) NewResource(name string, units int) *Resource {
	if units <= 0 {
		panic("sim: NewResource requires units > 0")
	}
	return &Resource{eng: e, name: name, total: units}
}

// Acquire takes one unit, blocking p in FIFO order while none are free.
//
//simlint:hotpath
func (r *Resource) Acquire(p *Proc) {
	p.assertRunning("Resource.Acquire")
	if !r.ArmAcquire(p) {
		p.park()
		r.Granted(p)
	}
}

// ArmAcquire is the non-parking half of Acquire, for p itself just before
// ParkScript or for its step function: it takes a free unit and reports
// true, or queues p in FIFO order and reports false. The grant then arrives
// as p's next wake-up, and whoever handles it calls Granted.
//
//simlint:hotpath
func (r *Resource) ArmAcquire(p *Proc) bool {
	p.assertScript("Resource.ArmAcquire")
	r.stats.Acquires++
	if r.inUse < r.total {
		r.inUse++
		return true
	}
	r.queue.push(waiter{p: p, id: p.newBlockID()})
	if q := r.queue.len(); q > r.stats.MaxQueue {
		r.stats.MaxQueue = q
	}
	p.queuedAt = r.eng.now
	return false
}

// Granted folds the wait that began with a false ArmAcquire into the
// resource's statistics and takes delivery of the unit, once the grant has
// woken p. The releaser transferred its unit; inUse is already counted.
//
//simlint:hotpath
func (r *Resource) Granted(p *Proc) {
	p.grant = nil
	r.stats.Waits++
	r.stats.WaitTime += r.eng.now - p.queuedAt
}

// TryAcquire takes a unit without blocking, reporting success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.total {
		r.stats.Acquires++
		r.inUse++
		return true
	}
	return false
}

// WaitStats returns a snapshot of the resource's contention counters.
func (r *Resource) WaitStats() ResourceStats { return r.stats }

// Release returns one unit. If a process is waiting, the unit passes
// directly to it (inUse stays constant); otherwise the unit becomes free.
// A waiter that has been killed but has not unwound yet is passed over: it
// will never return from Acquire to release what it was handed. (A channel
// or signal hand-off to such a process loses nothing anyone else owns, so
// only Release looks at killed.) One killed after the hand-off, in the same
// instant and before its grant is dispatched, unwinds with the unit still
// recorded in Proc.grant, and runBody's epilogue releases it.
//
//simlint:hotpath
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	for r.queue.len() > 0 {
		w := r.queue.pop()
		if w.stale() || w.p.killed {
			continue
		}
		w.p.grant = r
		w.p.wake(w.id, nil, true)
		return // unit handed over
	}
	r.inUse--
}

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of processes waiting (possibly including
// stale entries about to be discarded).
func (r *Resource) QueueLen() int { return r.queue.len() }

// Use acquires the resource, holds it for duration d of virtual time, and
// releases it — the common "serve one request" pattern. The release is
// deferred so a kill during the hold does not leak the unit.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	defer r.Release()
	p.Wait(d)
}

// Signal is a one-shot event with an attached value. Waiters block until
// Trigger fires; waits after the trigger return immediately. A Signal is
// the simulation analogue of a completion notification.
type Signal struct {
	eng     *Engine
	fired   bool
	val     interface{}
	waiters []waiter
}

// NewSignal returns an untriggered signal, reusing one from the engine's
// free list when available. Call/reply paths return signals with
// FreeSignal once the reply has been consumed.
//
//simlint:hotpath
func (e *Engine) NewSignal() *Signal {
	if n := len(e.sigfree); n > 0 {
		s := e.sigfree[n-1]
		e.sigfree[n-1] = nil
		e.sigfree = e.sigfree[:n-1]
		return s
	}
	return &Signal{eng: e}
}

// FreeSignal returns s to the engine's free list for reuse by a later
// NewSignal. The caller asserts no other reference to s survives: a
// recycled signal that something still waits on or may trigger would
// corrupt an unrelated future call. Freeing nil is a no-op.
//
//simlint:hotpath
func (e *Engine) FreeSignal(s *Signal) {
	if s == nil {
		return
	}
	s.fired = false
	s.val = nil
	for i := range s.waiters {
		s.waiters[i] = waiter{}
	}
	s.waiters = s.waiters[:0]
	e.sigfree = append(e.sigfree, s)
}

// Trigger fires the signal with value v, waking all waiters. Triggering
// twice panics: completions in this codebase are strictly one-shot.
//
//simlint:hotpath
func (s *Signal) Trigger(v interface{}) {
	if s.fired {
		panic("sim: Signal triggered twice")
	}
	s.fired = true
	s.val = v
	ws := s.waiters
	for i := range ws {
		if !ws[i].stale() {
			ws[i].p.wake(ws[i].id, v, true)
		}
		ws[i] = waiter{}
	}
	s.waiters = ws[:0]
}

// Fired reports whether the signal has been triggered.
func (s *Signal) Fired() bool { return s.fired }

// Value returns the trigger value (nil before the trigger).
func (s *Signal) Value() interface{} { return s.val }

// Wait blocks p until the signal fires and returns the trigger value.
func (s *Signal) Wait(p *Proc) interface{} {
	v, _ := s.WaitTimeout(p, -1)
	return v
}

// WaitTimeout blocks p until the signal fires or timeout elapses; a
// negative timeout waits forever. ok is false on timeout.
//
//simlint:hotpath
func (s *Signal) WaitTimeout(p *Proc, timeout Time) (v interface{}, ok bool) {
	p.assertRunning("Signal.Wait")
	if v, ok = s.ArmWait(p, timeout); ok {
		return v, true
	}
	p.park()
	return p.rxVal, p.rxOK
}

// ArmWait is the non-parking half of WaitTimeout, for p itself just before
// ParkScript or for its step function: it returns the value of a signal that
// has fired, or queues p as a waiter, arming the timeout unless it is
// negative, so that the trigger (ok true) or the timeout (ok false) arrives
// as p's wake-up (Proc.Delivered).
//
//simlint:hotpath
func (s *Signal) ArmWait(p *Proc, timeout Time) (v interface{}, ok bool) {
	p.assertScript("Signal.ArmWait")
	if s.fired {
		return s.val, true
	}
	s.waiters = append(s.waiters, waiter{p: p, id: p.newBlockID()})
	if timeout >= 0 {
		p.armTimeout(timeout)
	}
	return nil, false
}
