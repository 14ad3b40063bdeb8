package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// maxTime is the scheduling horizon: the whole Time range is runnable.
const maxTime = Time(math.MaxInt64)

// startEventID marks a wake-shaped event as a process start rather than a
// wake-up (blockID stamps count up from zero and never reach it), so spawns
// need no closure allocation.
const startEventID = ^uint64(0)

// event is a scheduled kernel action. Three shapes share the struct: generic
// callbacks (fn != nil), process starts (p != nil, id == startEventID) and
// process wake-ups (p != nil otherwise), which carry their target and park
// stamp inline so that the hot Wait/wake paths need no closure allocation.
// A wake-up whose target parked with a Stepper runs that step on the
// dispatching stack instead of continuing the process (see Proc.ParkScript).
// Events live by value inside the scheduler's slices; retained slice
// capacity acts as the free-list, so steady-state scheduling and dispatch
// allocate nothing.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among same-time events

	// fn is the generic callback (ad-hoc Schedule calls).
	fn func()

	// p/id describe a process start or wake-up: continue p if its park
	// stamp still matches id, delivering (val, ok) to the parked operation.
	p   *Proc
	id  uint64
	val interface{}
	ok  bool
}

// TraceFunc receives one line per traced kernel action.
type TraceFunc func(at Time, format string, args ...interface{})

// Engine is the discrete-event simulation kernel. Create one with NewEngine,
// spawn processes with Spawn, and advance virtual time with Run or RunUntil.
//
// Engine is not safe for concurrent use from multiple OS threads; the whole
// point is that simulated concurrency is scheduled deterministically on a
// single thread of control. Distinct Engine instances share no simulated
// state, so independent simulations may run on concurrent OS threads (one
// engine per goroutine), which is what the bench harness's worker pool does.
// What they do share is the process-wide pool of spare coroutines (see
// coro), which no schedule can observe.
//
// Processes run on runtime coroutines (iter.Pull) and the dispatch loop
// (advance) migrates across them: a process that parks runs the loop itself,
// so a self-wake (Wait with nothing interleaved) costs zero switches. When
// the loop reaches another process, the parking one yields to runLoop, which
// switches into the other: two coroutine switches that never enter the Go
// scheduler. Exactly one stack is ever running, so the schedule stays
// deterministic and data-race-free.
type Engine struct {
	now    Time
	seq    uint64
	q      eventQueue // production scheduler: same-instant lane + small heap (eventq.go)
	ref    *refHeap   // non-nil: tests are running the reference heap instead
	tmo    []*Proc    // min-heap of processes with a timeout armed, above either scheduler (timeout.go)
	procs  map[*Proc]struct{}
	nprocs uint64
	seed   int64
	trace  TraceFunc
	events uint64 // events dispatched over the engine's lifetime
	// switches counts the times runLoop switched into a process.
	switches uint64

	// sigfree recycles Signals through NewSignal/FreeSignal so the
	// call/reply hot path stops allocating one per request.
	sigfree []*Signal //simlint:box -- one-shot completion-signal pool

	// cur is the process currently running on its own stack, if any.
	cur *Proc
	// stepping is the parked process whose step function the dispatcher is
	// running, if any: the one process besides cur that may arm a park.
	stepping *Proc
	// stopped is set by Stop; Run returns at the next event boundary.
	stopped bool

	// to is the yielding coroutine's message to runLoop: the process to
	// switch into next, nil when the run is over (queue drained, deadline
	// or event budget reached, or Stop called).
	to *Proc
	// idle holds the coroutines whose process has finished, ready for the
	// next process to start: the hot path, touched without an atomic
	// operation. Only when it is empty does a start look in the
	// process-wide spares (see coro).
	idle []*coro
	// deadline and limit bound the current run: advance dispatches no
	// event beyond the deadline and no more than limit events total.
	deadline Time
	limit    uint64
	// running guards against re-entering Run/RunUntil/Step from inside a
	// dispatched event, which the migrating-loop protocol cannot support.
	running bool
}

// NewEngine returns a fresh engine whose derived random sources are seeded
// from seed. Two engines built with the same seed and the same program
// produce identical schedules.
func NewEngine(seed int64) *Engine {
	return &Engine{
		procs: make(map[*Proc]struct{}),
		seed:  seed,
	}
}

// useReferenceHeap switches a fresh engine onto the retained reference
// min-heap scheduler. Differential tests drive identical programs through
// both schedulers; production engines always run the event queue.
func (e *Engine) useReferenceHeap() {
	if e.events != 0 || e.q.len() != 0 {
		panic("sim: useReferenceHeap on a used engine")
	}
	e.ref = &refHeap{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the engine's root seed.
func (e *Engine) Seed() int64 { return e.seed }

// EventsExecuted returns the number of events the engine has dispatched
// since creation — the kernel-work measure benchmarks report ns/event and
// allocs/event against.
func (e *Engine) EventsExecuted() uint64 { return e.events }

// SwitchesExecuted returns the number of times the run loop has switched
// into a process since creation. Each costs two coroutine switches (in and,
// at the process's next yield, out); a process that wakes itself, or starts
// on the coroutine of the one that just finished, costs none. Against
// EventsExecuted it says how much of a run's host time is process switching.
func (e *Engine) SwitchesExecuted() uint64 { return e.switches }

// SetTrace installs fn as the kernel trace sink; nil disables tracing.
func (e *Engine) SetTrace(fn TraceFunc) { e.trace = fn }

// tracef forwards one trace line to the sink. Callers on hot paths must
// guard with traceEnabled() so that the varargs slice is never built when
// tracing is off.
func (e *Engine) tracef(format string, args ...interface{}) {
	if e.trace != nil {
		e.trace(e.now, format, args...)
	}
}

// traceEnabled reports whether a trace sink is installed. Check it before
// calling tracef from any per-event path: the check short-circuits the
// interface boxing and slice allocation of building the varargs.
//
//simlint:hotpath
func (e *Engine) traceEnabled() bool { return e.trace != nil }

// DeriveRand returns a deterministic random source unique to name.
// Components should each derive their own source so that adding a new
// consumer of randomness does not perturb the schedules of others.
//
//simlint:seedsource -- the one blessed construction point for rand sources
func (e *Engine) DeriveRand(name string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", e.seed, name)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// push hands ev to the active scheduler.
//
//simlint:hotpath
func (e *Engine) push(ev event) {
	if e.ref != nil {
		e.ref.push(ev)
		return
	}
	e.q.insert(ev)
}

// popBefore removes the earliest pending event into *ev, if there is one and
// its key sorts at or before (at, seq), and reports whether it did.
//
//simlint:hotpath
func (e *Engine) popBefore(at Time, seq uint64, ev *event) bool {
	if e.ref == nil {
		return e.q.popBefore(at, seq, ev)
	}
	hat, hseq, ok := e.ref.peek()
	if !ok || !before(hat, hseq, at, seq) {
		return false
	}
	*ev = e.ref.pop()
	return true
}

// Schedule runs fn at absolute virtual time at. Scheduling in the past is
// an error in the caller; the kernel clamps it to now to keep time monotone.
//
//simlint:hotpath
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.push(event{at: at, seq: e.seq, fn: fn})
}

// scheduleWake enqueues a process wake-up event without allocating a
// closure — the fast path under Proc.Wait and the waiter queues.
//
//simlint:hotpath
func (e *Engine) scheduleWake(at Time, p *Proc, id uint64, val interface{}, ok bool) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.push(event{at: at, seq: e.seq, p: p, id: id, val: val, ok: ok})
}

// advance runs the dispatch loop on the calling stack. Events pop in exact
// (at, seq) order — an armed timeout takes its turn in that order as one
// event, which queues the expired process's wake-up behind whatever is
// already queued for the instant — and execute until the deadline, the event
// budget, a Stop, or queue exhaustion ends the run, or until an event wakes
// or starts a process. The return value is where control must go next: self
// means the calling process was woken and simply continues inline (zero switches);
// any other process must be switched into (one that has just started has
// no coroutine yet); nil means the run is over. A wake-up for a process
// parked with a step function is an ordinary event here: the step runs on
// this stack, and only when it reports the script finished is the process
// itself continued.
//
//simlint:hotpath
func (e *Engine) advance(self *Proc) *Proc {
	e.cur = nil
	for !e.stopped && e.events < e.limit {
		// The next event must sort before the earliest armed timeout, and
		// within the deadline's instant.
		var tp *Proc
		at, seq := e.deadline, ^uint64(0)
		if len(e.tmo) > 0 && e.tmo[0].tmoAt <= at {
			tp = e.tmo[0]
			at, seq = tp.tmoAt, tp.tmoSeq
		}
		var ev event
		if !e.popBefore(at, seq, &ev) {
			if tp == nil {
				break
			}
			e.disarm(tp)
			if at > e.now {
				e.now = at
			}
			e.events++
			e.scheduleWake(e.now, tp, tp.blockID, nil, false)
			continue
		}
		if ev.at > e.now {
			e.now = ev.at
		}
		e.events++
		if ev.fn != nil {
			ev.fn()
			continue
		}
		p := ev.p
		if ev.id == startEventID {
			if !e.startProc(p) {
				continue
			}
			return p
		}
		if p.blockID != ev.id || p.state != procBlocked {
			continue // stale wake-up
		}
		if p.tmoIdx != 0 {
			e.disarm(p) // the wait is over: its timeout goes with it
		}
		p.rxVal, p.rxOK = ev.val, ev.ok
		if s := p.step; s != nil {
			// A killed process always resumes: it unwinds out of ParkScript
			// and its own deferred guard releases what the script holds.
			if !p.killed {
				e.stepping = p
				resume := s.Step(p)
				e.stepping = nil
				if !resume {
					continue // the step armed the next leg; p stays parked
				}
			}
			p.step = nil
		}
		p.state = procRunning
		e.cur = p
		return p
	}
	return nil
}

// runLoop drives one run: it dispatches inline until control must enter a
// process, switches into it, and when that coroutine yields switches into
// the process it names, until one reports the run over. Re-entry from
// inside a dispatched event is a protocol violation (the nested loop could
// try to switch into the process whose stack it is borrowing) and panics.
// A panic in simulation code arrives here through next(), so running is
// cleared by a defer and the engine can still be inspected and shut down.
func (e *Engine) runLoop(deadline Time, limit uint64) {
	if e.running {
		panic("sim: Run/RunUntil/Step re-entered from inside a dispatched event")
	}
	e.running = true
	defer func() { e.running, e.stepping = false, nil }()
	e.stopped = false
	e.deadline = deadline
	e.limit = limit
	for next := e.advance(nil); next != nil; next = e.to {
		c := next.co
		if c == nil {
			c = e.coroFor(next)
		}
		e.switches++
		c.next()
	}
}

// After runs fn after duration d of virtual time.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// Stop makes the current Run call return at the next event boundary.
// Pending events remain queued and a subsequent Run resumes them.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events until the event queue is empty or Stop is called.
// It returns the final virtual time. The whole Time range is runnable:
// the deadline is math.MaxInt64, so events may be scheduled anywhere up
// to the horizon.
func (e *Engine) Run() Time { return e.RunUntil(maxTime) }

// RunUntil processes events with timestamps <= deadline, then returns.
// The clock is left at min(deadline, time of last event) — it never runs
// ahead to the deadline when the queue drains early.
//
//simlint:hotpath
func (e *Engine) RunUntil(deadline Time) Time {
	e.runLoop(deadline, math.MaxUint64)
	return e.now
}

// Step executes exactly one pending event, if any, and reports whether one
// was executed. The event's synchronous continuation runs to its next park,
// exactly as it would under Run. Mostly useful in kernel tests.
func (e *Engine) Step() bool {
	before := e.events
	e.runLoop(maxTime, before+1)
	return e.events > before
}

// Pending reports the number of queued events plus armed timeouts.
func (e *Engine) Pending() int {
	n := e.q.len()
	if e.ref != nil {
		n = e.ref.len()
	}
	return n + len(e.tmo)
}

// QueueCapacity reports how many events the scheduler has room for without
// allocating — the retained capacity of its lane, heap and payload pool, its
// whole memory footprint. It tracks the deepest the queue has ever been, not
// the length of the run.
func (e *Engine) QueueCapacity() int { return cap(e.q.lane) + cap(e.q.heap) + cap(e.q.pool) }

// LiveProcs returns the number of processes that have been spawned and have
// not yet finished (they may be runnable or blocked).
func (e *Engine) LiveProcs() int { return len(e.procs) }

// liveProcs returns the live set in spawn order. The procs set is a map,
// so anything that iterates it — killing, reporting — must go through this
// to keep event ordering and output independent of map iteration order.
func (e *Engine) liveProcs() []*Proc {
	out := make([]*Proc, 0, len(e.procs))
	//simlint:ordered -- collected into a slice and sorted by spawn id below
	for p := range e.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// BlockedProcs returns the names of live processes that are currently
// parked, in spawn order, for post-mortem debugging of stuck simulations.
func (e *Engine) BlockedProcs() []string {
	var names []string
	for _, p := range e.liveProcs() {
		if p.state == procBlocked {
			names = append(names, p.name)
		}
	}
	return names
}

// Shutdown kills every live process in spawn order, drains their unwinding
// and hands the coroutines they ran on, unbound, to the process-wide spares
// for the next engine, stopping those that find no slot free. Kill order is
// schedule-visible (each kill enqueues a wake-up and fires exit hooks), so
// it must not depend on map iteration order. The engine can still be
// inspected afterwards but should not be reused for new work; nothing
// pooled refers to it, so once dropped it is collected.
func (e *Engine) Shutdown() {
	for _, p := range e.liveProcs() {
		p.Kill()
	}
	// Run only the kill wake-ups; they were scheduled "now".
	e.RunUntil(e.now)
	// An idle coroutine is a parked goroutine the collector never frees: it
	// is kept for reuse or stopped. A coroutine whose body panicked has
	// ended and was never idle, so it is neither.
	for _, c := range e.idle {
		c.eng = nil
		if !handOnCoro(c) {
			c.stop()
		}
	}
	e.idle = nil
}
