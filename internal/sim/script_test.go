package sim

import (
	"fmt"
	"strings"
	"testing"
)

// The script under differential test is the shape of a cluster message
// send: acquire the CPU → hold it → release → acquire two links → hold
// both → release. legRun is its straight-line form, one park per leg, the
// way the transport was written before step functions; legScript is the
// same script as a Stepper, parked once. Both give back exactly what they
// hold when their process is killed.
type legs struct {
	cpu, l1, l2 *Resource
	d1, d2      Time
}

func legRun(p *Proc, l legs) {
	held := 0
	defer func() {
		switch held {
		case 1:
			l.cpu.Release()
		case 2:
			l.l1.Release()
		case 3:
			l.l1.Release()
			l.l2.Release()
		}
	}()
	l.cpu.Acquire(p)
	held = 1
	p.Wait(l.d1)
	held = 0
	l.cpu.Release()
	l.l1.Acquire(p)
	held = 2
	l.l2.Acquire(p)
	held = 3
	p.Wait(l.d2)
	held = 0
	l.l1.Release()
	l.l2.Release()
}

type legScript struct {
	legs
	phase int // the wake-up the process is parked on
}

const (
	legIdle = iota
	legCPUQueued
	legCPUHeld
	legL1Queued
	legL2Queued // holding l1
	legLinksHeld
)

func (s *legScript) run(p *Proc) {
	defer s.abort()
	if s.cpu.ArmAcquire(p) {
		p.ArmWait(s.d1)
		s.phase = legCPUHeld
	} else {
		s.phase = legCPUQueued
	}
	p.ParkScript(s)
}

func (s *legScript) abort() {
	switch s.phase {
	case legCPUHeld:
		s.cpu.Release()
	case legL2Queued:
		s.l1.Release()
	case legLinksHeld:
		s.l1.Release()
		s.l2.Release()
	}
	s.phase = legIdle
}

func (s *legScript) Step(p *Proc) bool {
	switch s.phase {
	case legCPUQueued:
		s.cpu.Granted(p)
		p.ArmWait(s.d1)
		s.phase = legCPUHeld
		return false
	case legCPUHeld:
		s.phase = legIdle
		s.cpu.Release()
		if !s.l1.ArmAcquire(p) {
			s.phase = legL1Queued
			return false
		}
		return s.second(p)
	case legL1Queued:
		s.l1.Granted(p)
		return s.second(p)
	case legL2Queued:
		s.l2.Granted(p)
		return s.holdLinks(p)
	case legLinksHeld:
		s.phase = legIdle
		s.l1.Release()
		s.l2.Release()
		return true
	}
	panic("legScript: wake-up with no leg armed")
}

func (s *legScript) second(p *Proc) bool {
	if !s.l2.ArmAcquire(p) {
		s.phase = legL2Queued
		return false
	}
	return s.holdLinks(p)
}

func (s *legScript) holdLinks(p *Proc) bool {
	p.ArmWait(s.d2)
	s.phase = legLinksHeld
	return false
}

// scriptStorm drives a seeded storm around the script on the reference
// heap and returns the full schedule transcript — one (at, seq, process,
// park stamp) line per dispatched event — followed by everything the
// storm left behind: resource statistics, what each process observed, and
// who is still parked. stepped selects the Stepper forms (legScript,
// Chan.Serve, or with hold Chan.ServeLegs) over the straight-line ones
// (legRun, a Recv loop).
//
// Around the senders: plain Use traffic on the same three resources, waves
// of processes spawned for the same instant, a forwarder in the shape of
// the message-system dispatcher feeding consumers whose RecvTimeout
// sometimes expires, a signal waiter whose WaitTimeout sometimes expires,
// and killers that take out senders, forwarders and bystanders mid-flight.
func scriptStorm(seed int64, stepped, ref, hold bool) (transcript []string, switches uint64) {
	e := NewEngine(seed)
	var out []string
	if ref {
		e.useReferenceHeap()
		e.ref.tap = func(ev *event) {
			who := "fn"
			if ev.p != nil {
				who = ev.p.name
			}
			out = append(out, fmt.Sprintf("%d %d %s %d", int64(ev.at), ev.seq, who, ev.id))
		}
	}
	note := func(p *Proc, what string) {
		out = append(out, fmt.Sprintf("  %d %s %s", int64(p.Now()), p.Name(), what))
	}

	rng := e.DeriveRand("script-storm")
	// Few distinct values, so that arrivals, grants and expiries collide
	// on the same instant all the time.
	delay := func() Time {
		return []Time{0, 0, 100, Microsecond, Microsecond, 3 * Microsecond, 10 * Microsecond, 40 * Microsecond}[rng.Intn(8)]
	}
	cpu := e.NewResource("cpu", 1)
	l1 := e.NewResource("l1", 1)
	l2 := e.NewResource("l2", 1)
	wire := e.NewChan("wire")
	inbox := e.NewChan("inbox")
	var victims []*Proc

	sender := func(p *Proc) {
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			l := legs{cpu: cpu, l1: l1, l2: l2, d1: delay(), d2: delay()}
			if rng.Intn(4) == 0 {
				l.l1, l.l2 = l2, l1 // opposite order: the second acquire contends
			}
			if stepped {
				(&legScript{legs: l}).run(p)
			} else {
				legRun(p, l)
			}
			note(p, "sent")
			wire.Send(p, i)
			if rng.Intn(2) == 0 {
				p.Wait(delay())
			}
		}
	}
	forward := func(v interface{}) { inbox.TrySend(v) }
	// With hold, the forwarder holds some values before passing them on: an
	// odd one for a timed leg, 0 and 2 for a signal wait that the trigger (0)
	// or the timeout (2) ends. Its stepped form is then a ServeLegs server.
	signalFor := func(i int) *Signal {
		s := e.NewSignal()
		e.After(Time(1+i)*Microsecond, func() { s.Trigger(i) })
		return s
	}
	forwarder := func(p *Proc) {
		switch {
		case stepped && hold:
			wire.ServeLegs(p, &holdServer{forward: forward, signalFor: signalFor})
		case stepped:
			wire.Serve(p, forward)
		}
		for {
			v := wire.Recv(p)
			switch i := v.(int); {
			case !hold:
			case i%2 == 1:
				p.Wait(Time(i) * Microsecond)
			case i == 0 || i == 2:
				signalFor(i).WaitTimeout(p, 2*Microsecond)
			}
			forward(v)
		}
	}
	user := func(p *Proc) {
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			[]*Resource{cpu, l1, l2}[rng.Intn(3)].Use(p, delay())
			note(p, "used")
		}
	}
	consumer := func(p *Proc) {
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			v, ok := inbox.RecvTimeout(p, delay())
			note(p, fmt.Sprintf("recv %v %v", v, ok))
		}
	}
	sigWaiter := func(p *Proc) {
		s := e.NewSignal()
		e.After(delay(), func() { s.Trigger("fired") })
		v, ok := s.WaitTimeout(p, delay())
		note(p, fmt.Sprintf("signal %v %v", v, ok))
	}
	killer := func(p *Proc) {
		p.Wait(delay())
		v := victims[rng.Intn(len(victims))]
		note(p, "kills "+v.Name())
		v.Kill()
	}
	bodies := []func(*Proc){sender, sender, sender, user, consumer, sigWaiter, killer}

	victims = append(victims, e.Spawn("fwd0", forwarder))
	e.Spawn("spawner", func(p *Proc) {
		for n := 0; ; n++ {
			p.Wait(delay())
			// A wave starting at one instant.
			for i, k := 0, 1+rng.Intn(4); i < k; i++ {
				name := fmt.Sprintf("w%d.%d", n, i)
				victims = append(victims, e.SpawnAt(p.Now()+delay(), name, bodies[rng.Intn(len(bodies))]))
			}
			if rng.Intn(16) == 0 {
				// A second forwarder shares the wire (and replaces a killed one).
				victims = append(victims, e.Spawn(fmt.Sprintf("fwd%d", n), forwarder))
			}
		}
	})

	for i := 1; i <= 8; i++ {
		e.RunUntil(Time(i) * 400 * Microsecond)
	}
	for _, r := range []*Resource{cpu, l1, l2} {
		out = append(out, fmt.Sprintf("%s %+v inUse=%d queue=%d", r.name, r.WaitStats(), r.InUse(), r.QueueLen()))
	}
	out = append(out, fmt.Sprintf("blocked %v", e.BlockedProcs()))
	e.Shutdown()
	for _, r := range []*Resource{cpu, l1, l2} {
		out = append(out, fmt.Sprintf("%s after shutdown inUse=%d", r.name, r.InUse()))
	}
	out = append(out, fmt.Sprintf("end %d events=%d live=%d", int64(e.Now()), e.EventsExecuted(), e.LiveProcs()))
	return out, e.SwitchesExecuted()
}

// holdServer is the storm forwarder's ServeLegs form: a value that takes a
// leg — a timed wait, a signal wait with a timeout — is passed on when its
// leg is over.
type holdServer struct {
	forward   func(v interface{})
	signalFor func(i int) *Signal
	v         interface{} // the value whose leg is in flight
}

func (h *holdServer) Handle(p *Proc, v interface{}) bool {
	switch i := v.(int); {
	case i%2 == 1:
		p.ArmWait(Time(i) * Microsecond)
	case i == 0 || i == 2:
		if _, ok := h.signalFor(i).ArmWait(p, 2*Microsecond); ok {
			h.forward(v)
			return true
		}
	default:
		h.forward(v)
		return true
	}
	h.v = v
	return false
}

func (h *holdServer) Step(p *Proc) bool {
	h.forward(h.v)
	return true
}

// TestScriptScheduleMatchesStraightLine is the step mechanism's contract:
// a script walked by the dispatcher produces the schedule of the same
// script parked leg by leg, event for event — same instants, same sequence
// numbers, same targets, same park stamps, stale wake-ups included — under
// contention, same-instant ties, timeouts and kills at every leg.
func TestScriptScheduleMatchesStraightLine(t *testing.T) { checkStorms(t, false) }

// TestServeLegsScheduleMatchesStraightLine holds a ServeLegs server to the
// same contract: a forwarder whose values take timed and signal-wait legs,
// walked by the dispatcher, against a Recv loop that waits them out itself.
func TestServeLegsScheduleMatchesStraightLine(t *testing.T) { checkStorms(t, true) }

// checkStorms compares the straight-line and stepped storms of 12 seeds.
func checkStorms(t *testing.T, hold bool) {
	t.Helper()
	var straightSwitches, steppedSwitches uint64
	for seed := int64(1); seed <= 12; seed++ {
		// The switch counts are the one thing that must differ.
		want, a := scriptStorm(seed, false, true, hold)
		got, b := scriptStorm(seed, true, true, hold)
		straightSwitches, steppedSwitches = straightSwitches+a, steppedSwitches+b
		if len(want) < 4000 {
			t.Fatalf("seed %d: storm of %d lines is too small to mean anything", seed, len(want))
		}
		for i := range want {
			if i >= len(got) || want[i] != got[i] {
				lo := i - 5
				if lo < 0 {
					lo = 0
				}
				g := "<transcript ended>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d: schedules diverge at line %d:\nstraight %q\nstepped  %q\nshared prefix tail:\n%s",
					seed, i, want[i], g, strings.Join(want[lo:i], "\n"))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: stepped transcript has %d extra lines, first %q", seed, len(got)-len(want), got[len(want)])
		}
		// The production queue has no tap, but everything the storm's
		// processes observed and left behind must match the heap run's.
		var observed []string
		for _, line := range got {
			if line[0] < '0' || line[0] > '9' {
				observed = append(observed, line)
			}
		}
		prod, _ := scriptStorm(seed, true, false, hold)
		if q, h := strings.Join(prod, "\n"), strings.Join(observed, "\n"); q != h {
			t.Errorf("seed %d: the stepped storm on the event queue and on the reference heap observed different runs", seed)
		}
	}
	t.Logf("switches over 12 storms: %d straight-line, %d stepped", straightSwitches, steppedSwitches)
	if steppedSwitches >= straightSwitches {
		t.Errorf("stepped storms made %d switches against %d straight-line: the scripts save nothing", steppedSwitches, straightSwitches)
	}
}

// stepFunc adapts a function to Stepper.
type stepFunc func(p *Proc) bool

func (f stepFunc) Step(p *Proc) bool { return f(p) }

// A step runs with its process parked, so a blocking primitive inside one
// is a bug; it must fail loudly, naming the process, not corrupt the
// schedule.
func TestStepCallingBlockingPrimitivePanics(t *testing.T) {
	for _, tc := range []struct {
		op    string
		block func(e *Engine, p *Proc)
	}{
		{"Wait", func(e *Engine, p *Proc) { p.Wait(Microsecond) }},
		{"Chan.Recv", func(e *Engine, p *Proc) { e.NewChan("c").Recv(p) }},
		{"Chan.Send", func(e *Engine, p *Proc) { e.NewChan("c").Send(p, 1) }},
		{"Resource.Acquire", func(e *Engine, p *Proc) { e.NewResource("r", 1).Acquire(p) }},
		{"Signal.Wait", func(e *Engine, p *Proc) { e.NewSignal().Wait(p) }},
		{"ParkScript", func(e *Engine, p *Proc) { p.ParkScript(stepFunc(func(*Proc) bool { return true })) }},
	} {
		t.Run(tc.op, func(t *testing.T) {
			e := NewEngine(1)
			e.Spawn("bystander", func(p *Proc) { p.Wait(Second) })
			e.Spawn("scripted", func(p *Proc) {
				p.ArmWait(Microsecond)
				p.ParkScript(stepFunc(func(p *Proc) bool {
					tc.block(e, p)
					return true
				}))
			})
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, tc.op) || !strings.Contains(msg, `"scripted"`) {
						t.Errorf("step calling %s: Run panicked with %q, want the primitive and the process named", tc.op, msg)
					}
				}()
				e.Run()
			}()
			// The engine survives for the post-mortem. The step ran on the
			// scripted process's own stack (its park was dispatching), so
			// that stack is gone and the process with it.
			if got := e.BlockedProcs(); len(got) != 1 || got[0] != "bystander" {
				t.Errorf("blocked after the panic: %v, want the bystander", got)
			}
			e.Shutdown()
			if e.LiveProcs() != 0 {
				t.Errorf("%d processes survived Shutdown", e.LiveProcs())
			}
		})
	}
}

// Arming a park for a process from anywhere but its own stack or its own
// step would silently re-stamp it and lose its real wake-up.
func TestArmOutsideContextPanics(t *testing.T) {
	e := NewEngine(1)
	victim := e.Spawn("victim", func(p *Proc) { p.Wait(Second) })
	r, c := e.NewResource("r", 1), e.NewChan("c")
	e.Spawn("meddler", func(p *Proc) {
		for name, arm := range map[string]func(){
			"ArmWait":             func() { victim.ArmWait(0) },
			"Resource.ArmAcquire": func() { r.ArmAcquire(victim) },
			"Chan.ArmRecv":        func() { c.ArmRecv(victim) },
		} {
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, name) || !strings.Contains(msg, `"victim"`) {
						t.Errorf("%s for a foreign process: %q, want a panic naming both", name, msg)
					}
				}()
				arm()
			}()
		}
	})
	e.RunUntil(Millisecond)
	e.Shutdown()
}

// A script nothing interleaves with is walked by its own process's park:
// every leg is a self-wake, so the whole script costs no switch at all.
func TestUncontendedScriptCostsNoSwitch(t *testing.T) {
	e := NewEngine(1)
	cpu, l1, l2 := e.NewResource("cpu", 1), e.NewResource("l1", 1), e.NewResource("l2", 1)
	var switches, events uint64
	e.Spawn("sender", func(p *Proc) {
		s0, e0 := e.SwitchesExecuted(), e.EventsExecuted()
		for i := 0; i < 10; i++ {
			(&legScript{legs: legs{cpu: cpu, l1: l1, l2: l2, d1: Microsecond, d2: Microsecond}}).run(p)
		}
		switches, events = e.SwitchesExecuted()-s0, e.EventsExecuted()-e0
	})
	e.Run()
	if switches != 0 || events != 20 {
		t.Errorf("10 uncontended scripts: %d switches over %d events, want 0 over 20", switches, events)
	}
	if cpu.InUse()+l1.InUse()+l2.InUse() != 0 {
		t.Error("a finished script still holds a resource")
	}
}

// Kill reaches a scripted process at every leg: it resumes at once, unwinds
// out of ParkScript, and its deferred guard gives back exactly what the
// script held — the next user of each resource gets it.
func TestKillAtEveryScriptLeg(t *testing.T) {
	// The script's legs against time, with cpu, l1 and l2 each held by a
	// blocker until 10, 30 and 50 µs: queued on cpu [0,10), holding cpu
	// [10,20), queued on l1 [20,30), holding l1 queued on l2 [30,50),
	// holding both [50,60).
	for _, tc := range []struct {
		leg    string
		killAt Time
	}{
		{"queued on cpu", 5 * Microsecond},
		{"holding cpu", 15 * Microsecond},
		{"queued on l1", 25 * Microsecond},
		{"holding l1, queued on l2", 40 * Microsecond},
		{"holding both links", 55 * Microsecond},
	} {
		t.Run(tc.leg, func(t *testing.T) {
			e := NewEngine(1)
			cpu, l1, l2 := e.NewResource("cpu", 1), e.NewResource("l1", 1), e.NewResource("l2", 1)
			for i, r := range []*Resource{cpu, l1, l2} {
				r, until := r, Time(10+20*i)*Microsecond
				e.Spawn("blocker", func(p *Proc) { r.Use(p, until) })
			}
			finished := false
			victim := e.Spawn("victim", func(p *Proc) {
				(&legScript{legs: legs{cpu: cpu, l1: l1, l2: l2, d1: 10 * Microsecond, d2: 10 * Microsecond}}).run(p)
				finished = true
			})
			e.Schedule(tc.killAt, victim.Kill)
			// Whoever comes next must get every resource.
			var after int
			e.SpawnAt(100*Microsecond, "next", func(p *Proc) {
				(&legScript{legs: legs{cpu: cpu, l1: l1, l2: l2, d1: Microsecond, d2: Microsecond}}).run(p)
				after = cpu.InUse() + l1.InUse() + l2.InUse()
			})
			e.Run()
			if finished || !victim.Done() {
				t.Errorf("victim finished=%v done=%v, want killed mid-script", finished, victim.Done())
			}
			if e.Now() != 102*Microsecond || after != 0 {
				t.Errorf("the next sender ended at %v holding %d, want 102µs holding 0: the kill leaked a unit", e.Now(), after)
			}
			if e.LiveProcs() != 0 {
				t.Errorf("stuck processes: %v", e.BlockedProcs())
			}
		})
	}
}

// A step that gets its own process killed keeps the parked process's
// rules: no wake-up is added (the process is not waiting for one), and the
// process unwinds when its script next continues it.
func TestKillFromOwnStep(t *testing.T) {
	e := NewEngine(1)
	released := false
	p := e.Spawn("self-killer", func(p *Proc) {
		defer func() { released = true }()
		legsLeft := 2
		p.ArmWait(Microsecond)
		p.ParkScript(stepFunc(func(p *Proc) bool {
			if legsLeft--; legsLeft > 0 {
				p.Kill()
				p.ArmWait(Microsecond)
				return false
			}
			return true
		}))
		t.Error("the killed process continued past ParkScript")
	})
	e.Run()
	if !p.Done() || !released || e.EventsExecuted() != 3 || e.Now() != 2*Microsecond {
		t.Errorf("done=%v released=%v events=%d now=%v, want the process unwound at 2µs after start + 2 wake-ups",
			p.Done(), released, e.EventsExecuted(), e.Now())
	}
}

// Serve handles what is already buffered, then every later value in
// arrival order, without ever switching into the server again; killing the
// server stops it like any parked process.
func TestChanServe(t *testing.T) {
	e := NewEngine(1)
	c := e.NewChan("c")
	var got []interface{}
	c.TrySend("early1")
	c.TrySend("early2")
	srv := e.Spawn("server", func(p *Proc) {
		c.Serve(p, func(v interface{}) { got = append(got, v) })
	})
	e.Spawn("client", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(Microsecond)
			c.Send(p, i)
		}
	})
	e.Run()
	if want := []interface{}{"early1", "early2", 0, 1, 2}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("served %v, want %v", got, want)
	}
	// Start of each process, and the client continued after each of its
	// first two sends ran the server's step on the client's own stack: the
	// server itself was entered once, to start.
	if e.SwitchesExecuted() != 2 {
		t.Errorf("%d switches, want 2 (one start each)", e.SwitchesExecuted())
	}
	if names := e.BlockedProcs(); len(names) != 1 || names[0] != "server" {
		t.Errorf("blocked %v, want the idle server", names)
	}
	srv.Kill()
	e.Run()
	if !srv.Done() || e.LiveProcs() != 0 {
		t.Errorf("killed server done=%v, live=%d", srv.Done(), e.LiveProcs())
	}
	// A value sent after the server died waits in the buffer.
	if !c.TrySend("late") || c.Len() != 1 {
		t.Errorf("send after the server's death: buffered %d, want 1", c.Len())
	}
}
