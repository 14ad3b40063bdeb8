package sim

import (
	"fmt"
	"iter"
	"sync/atomic" //simlint:allow goroutine -- the spare coroutines below: slots swapped whole between engines, each coroutine unbound while it sits in one
)

// procState tracks where a process is in its lifecycle.
type procState int

const (
	procNew procState = iota
	procRunnable
	procRunning
	procBlocked
	procDone
)

// killSentinel is the panic value used to unwind a killed process. It is
// recovered around the process body and never escapes.
type killSentinel struct{ name string }

// Proc is a simulated process: a body function running on a runtime
// coroutine, interleaved deterministically by the Engine. All blocking
// methods (Wait, channel and resource operations) must be called only from
// within the process's own body function.
type Proc struct {
	eng  *Engine
	name string
	id   uint64

	// co is the coroutine the body runs on: nil until the process first
	// runs and again once it has finished.
	co *coro

	state   procState
	killed  bool
	started bool
	body    func(p *Proc)

	// blockID stamps each park; wake-up events capture the stamp so that
	// stale wake-ups (after a kill or a racing waker) are ignored.
	blockID uint64

	// rxVal carries a value handed to the proc while it was blocked
	// (channel receive, resource grant); rxOK distinguishes wake reasons.
	rxVal interface{}
	rxOK  bool

	// step, while the process is parked by ParkScript, handles its wake-ups
	// in place of continuing it.
	step Stepper
	// queuedAt is when the process last queued on a Resource, for the wait
	// accounting folded in at the grant.
	queuedAt Time
	// grant is the resource whose unit Release has handed to the parked
	// process, until Granted takes delivery of it.
	grant *Resource

	// tmoAt/tmoSeq key the timeout armed for the current park, if any, and
	// tmoIdx is its position in Engine.tmo plus one (0: none armed).
	tmoAt  Time
	tmoSeq uint64
	tmoIdx int32

	// reaper, the spawner's exit hook, and then the onExit callbacks run (in
	// engine context) when the process finishes or is killed.
	reaper func(p *Proc)
	onExit []func()
}

// Spawn creates a process named name executing body and schedules it to
// start at the current virtual time.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, body)
}

// SpawnAt creates a process that starts at absolute time at.
func (e *Engine) SpawnAt(at Time, name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, body: body}
	e.start(p, at)
	return p
}

// Restart starts a finished process again, as a new process: it takes the
// next spawn id, keeps its name and body, and its start event goes exactly
// where a Spawn here would put one. The park stamp carries on from the last
// run, so a wake-up, waiter entry or signal waiter that run left behind stays
// stale. A layer that would spawn a process per request keeps one and
// restarts it instead. Restart panics unless the process is done.
//
//simlint:hotpath
func (p *Proc) Restart() {
	if p.state != procDone {
		panic("sim: Restart of process " + p.name + ", which has not finished")
	}
	p.state = procNew
	p.killed, p.started = false, false
	p.rxVal, p.rxOK = nil, false
	p.step = nil
	p.eng.start(p, p.eng.now)
}

// start gives p the next spawn id, adds it to the live set and schedules its
// start at absolute time at: the one start path of Spawn and Restart.
//
//simlint:hotpath
func (e *Engine) start(p *Proc, at Time) {
	e.nprocs++
	p.id = e.nprocs
	e.procs[p] = struct{}{}
	// The start is a wake-shaped event carrying startEventID, so starting
	// allocates no closure; it follows the same (at, seq) order a
	// Schedule here would have.
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.push(event{at: at, seq: e.seq, p: p, id: startEventID})
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the process's spawn sequence number (1 for the first process
// spawned on the engine; a Restart draws a new one). It is the stable order
// for iterating process sets deterministically.
func (p *Proc) ID() uint64 { return p.id }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Done reports whether the process has finished (normally or by kill).
func (p *Proc) Done() bool { return p.state == procDone }

// OnExit registers fn to run when the process finishes or is killed.
func (p *Proc) OnExit(fn func()) { p.onExit = append(p.onExit, fn) }

// SetReaper installs the spawner's exit hook: fn runs with p when p finishes
// or is killed, ahead of every OnExit callback. It is handed the process, so
// a layer that spawns a process per request keeps one func value for all of
// them, where an OnExit closure and the slice holding it are two allocations
// a spawn.
func (p *Proc) SetReaper(fn func(p *Proc)) { p.reaper = fn }

// startProc handles a start event: it marks p running and reports true (the
// dispatcher must transfer control to p, which whoever switches to it gives
// a coroutine), or retires a process killed before it ever ran and reports
// false.
func (e *Engine) startProc(p *Proc) bool {
	if p.killed || p.started {
		// Killed before it ever ran: just retire it.
		if !p.started {
			p.state = procDone
			e.retire(p)
		}
		return false
	}
	if e.traceEnabled() {
		e.tracef("start %s", p.name)
	}
	p.started = true
	p.state = procRunning
	e.cur = p
	return true
}

// coro is one runtime coroutine (iter.Pull) that process bodies run on, one
// after another. Creating one costs about ten allocations more than a bare
// goroutine and some layers spawn a process per transaction, so a coroutine
// whose body has finished goes onto its engine's idle list and serves the
// next process to start there. Engine.Shutdown hands the idle ones to the
// process-wide spares, where the next engine to need one takes it; a
// coroutine outlives its engine as it outlives its processes. eng is nil
// while the coroutine sits in a spare slot, and p whenever no process is
// bound to it.
type coro struct {
	eng   *Engine
	next  func() (struct{}, bool) // run loop -> coroutine
	stop  func()
	yield func(struct{}) bool // coroutine -> run loop
	p     *Proc               // the process whose body runs next
}

// coroSlots is how many idle coroutines the process keeps between engines:
// a few times the most any benchmark workload's store leaves idle at its
// shutdown (68), so that stores shut down side by side on bench's worker
// pool fit too. A coroutine beyond it is stopped.
const coroSlots = 256

// spareCoros are the coroutines shut-down engines left behind, unbound.
// Each slot is swapped whole, so an engine on one goroutine (bench's worker
// pool runs one engine per goroutine) may take what an engine on another
// handed on: iter.Pull lets any one goroutine at a time resume a coroutine,
// and the swap orders the hand-over. Which coroutine a process runs on is
// invisible to the schedule, so which engine found a slot full shows in
// allocation counts only.
var spareCoros [coroSlots]atomic.Pointer[coro]

// takeSpareCoro returns a pooled coroutine, or nil when every slot is empty.
func takeSpareCoro() *coro {
	for i := range spareCoros {
		if spareCoros[i].Load() != nil {
			if c := spareCoros[i].Swap(nil); c != nil {
				return c
			}
		}
	}
	return nil
}

// handOnCoro pools c, which is parked at its yield with no engine and no
// process bound, in the first empty slot; it reports false when every slot
// is full.
func handOnCoro(c *coro) bool {
	for i := range spareCoros {
		if spareCoros[i].Load() == nil && spareCoros[i].CompareAndSwap(nil, c) {
			return true
		}
	}
	return false
}

// coroFor binds p to a coroutine: the engine's most recently idled one,
// else a spare another engine left, else a new one.
func (e *Engine) coroFor(p *Proc) *coro {
	var c *coro
	if n := len(e.idle); n > 0 {
		c = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else if c = takeSpareCoro(); c != nil {
		c.eng = e
	} else {
		c = &coro{eng: e}
		// The coroutine is a goroutine, but only ever entered by next() from
		// the run loop and left by yield(): the runtime switches the two
		// directly, without its scheduler, so exactly one of them runs.
		c.next, c.stop = iter.Pull(c.run) //simlint:allow goroutine -- coroutine machinery: the one place a process stack is created
	}
	c.p, p.co = p, c
	return c
}

// run is the coroutine's function: it runs the body of the process bound to
// it and, when the body finishes, keeps the dispatch loop going on the same
// stack. If the loop's next step is a process start, that process runs right
// here with no switch at all; otherwise the coroutine goes idle and yields
// the next process to the run loop. The engine is read afresh after every
// resume: a pooled coroutine wakes up bound to another one.
func (c *coro) run(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.runBody()
		e := c.eng
		next := e.advance(nil)
		if next != nil && next.co == nil {
			c.p, next.co = next, c
			continue
		}
		c.p = nil // an idle coroutine must not keep a finished process's closure alive
		e.idle = append(e.idle, c)
		e.to = next
		if !yield(struct{}{}) {
			return // stopped by Shutdown, the pool full
		}
	}
}

// runBody runs p's body to completion. A kill unwinds the body with a
// killSentinel panic, recovered here so that the coroutine survives its
// process. Any other panic destroys the stack: p is dropped from the live
// set without running its exit hooks, and the panic travels on through
// next() to whoever called Run. So does a runtime.Goexit (t.FailNow) in
// the body, once p has retired.
func (p *Proc) runBody() {
	defer func() {
		e := p.eng
		p.co = nil
		e.cur = nil
		if p.tmoIdx != 0 {
			e.disarm(p) // a panic unwound p out of a timed park
		}
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok {
				blocked := p.state == procBlocked
				p.state = procDone
				delete(e.procs, p)
				if blocked {
					// The panic unwound out of the dispatch loop run
					// inside park(), not out of the body: some other
					// event's code panicked while borrowing this stack.
					// Re-raise it untouched.
					panic(r)
				}
				// Real panic from simulation code: surface it with
				// process identity.
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
			}
		}
		if g := p.grant; g != nil {
			// Killed in the instant of the grant: p unwound out of Acquire, or
			// out of a script's queued phase, holding a unit it never took.
			p.grant = nil
			g.Release()
		}
		p.state = procDone
		e.retire(p)
	}()
	p.body(p)
}

// retire removes a finished process from the live set and fires exit hooks.
func (e *Engine) retire(p *Proc) {
	if e.traceEnabled() {
		e.tracef("retire %s", p.name)
	}
	delete(e.procs, p)
	if fn := p.reaper; fn != nil {
		p.reaper = nil
		fn(p)
	}
	for _, fn := range p.onExit {
		fn()
	}
	p.onExit = nil
}

// park blocks the calling process until a wake-up with the current blockID
// arrives. It must be called from within the process body. The parking
// process runs the dispatch loop itself: if the very next runnable event is
// its own wake-up it continues with zero switches, otherwise it names the
// next runnable process (nil when the run is over) and yields to the run
// loop, which switches to that process and, some run, back to this one.
//
//simlint:hotpath
func (p *Proc) park() {
	p.state = procBlocked
	e := p.eng
	if next := e.advance(p); next != p {
		e.to = next
		p.co.yield(struct{}{})
	}
	if p.killed {
		panic(killSentinel{p.name})
	}
}

// Stepper is the continuation a process leaves with the engine when it
// parks by ParkScript: a fixed script of timed legs (wait, acquire, hold,
// forward a message) that needs no stack of its own between them.
type Stepper interface {
	// Step handles one wake-up addressed to the parked process p, on
	// whatever stack is dispatching. It either arms the script's next leg
	// with the non-parking primitives (Proc.ArmWait, Resource.ArmAcquire,
	// Chan.ArmRecv) and returns false, leaving p parked, or returns true:
	// the script is over and p continues from ParkScript inside this same
	// event. Step may release resources, trigger signals and TrySend; a
	// blocking primitive panics, because p is not running. It never runs
	// for a killed process.
	Step(p *Proc) (resume bool)
}

// ParkScript parks p, which must just have armed its first leg, with s as
// its continuation: every wake-up addressed to p — same (at, seq) slot,
// same park stamp, same staleness rule as if p had parked leg by leg — runs
// s.Step instead of switching into p, until a step returns true. Events are
// neither added, removed nor reordered; only the process switches go. A
// kill resumes p at once and unwinds it out of ParkScript, so whatever the
// script holds at that instant must be released by a guard p deferred
// before parking.
//
//simlint:hotpath
func (p *Proc) ParkScript(s Stepper) {
	p.assertRunning("ParkScript")
	p.step = s
	p.park()
}

// ArmWait arms a wake-up for p after duration d: the non-parking half of
// Wait, for p itself just before ParkScript or for its step function.
//
//simlint:hotpath
func (p *Proc) ArmWait(d Time) {
	p.assertScript("ArmWait")
	if d < 0 {
		d = 0
	}
	p.eng.scheduleWake(p.eng.now+d, p, p.newBlockID(), nil, false)
}

// wake schedules process p to continue at the current virtual time if its
// park stamp still matches id. The value v (with ok) is delivered to the
// parked operation.
//
//simlint:hotpath
func (p *Proc) wake(id uint64, v interface{}, ok bool) {
	e := p.eng
	e.scheduleWake(e.now, p, id, v, ok)
}

// newBlockID stamps a fresh park and returns the stamp.
//
//simlint:hotpath
func (p *Proc) newBlockID() uint64 {
	p.blockID++
	return p.blockID
}

// assertRunning panics if a blocking primitive is used from outside the
// process's own execution context — a programming error that would
// otherwise corrupt the deterministic schedule.
func (p *Proc) assertRunning(op string) {
	if p.eng.cur != p {
		panic(fmt.Sprintf("sim: %s called on process %q from outside its context", op, p.name))
	}
}

// assertScript panics unless p may arm a park right now: it is running on
// its own stack, or the dispatcher is running its step function.
func (p *Proc) assertScript(op string) {
	if e := p.eng; e.cur != p && e.stepping != p {
		panic(fmt.Sprintf("sim: %s called for process %q from outside its context or step", op, p.name))
	}
}

// Wait suspends the process for duration d of virtual time. Even a zero
// wait yields: it reschedules the process behind already-queued same-time
// events, which is the natural semantics for "let others run".
//
//simlint:hotpath
func (p *Proc) Wait(d Time) {
	p.assertRunning("Wait")
	p.ArmWait(d)
	p.park()
}

// WaitUntil suspends the process until absolute virtual time t (no-op if t
// is in the past).
func (p *Proc) WaitUntil(t Time) {
	d := t - p.eng.now
	if d < 0 {
		d = 0
	}
	p.Wait(d)
}

// Kill marks the process for termination. If it is blocked it is woken
// immediately and unwinds; if it is currently running it unwinds at its
// next blocking point; if it never started it is retired without running.
// Killing a finished process is a no-op.
func (p *Proc) Kill() {
	if p.state == procDone || p.killed {
		return
	}
	p.killed = true
	e := p.eng
	if !p.started {
		// Cancel before first run; the start event will retire it.
		return
	}
	if p.state == procBlocked && e.stepping != p {
		// park() sees killed and unwinds when the wake continues it.
		e.scheduleWake(e.now, p, p.blockID, nil, false)
	}
	// If running — on its own stack or in its step function — the wake-up
	// of its next park observes killed.
}

// Killed reports whether Kill has been called on the process.
func (p *Proc) Killed() bool { return p.killed }
