package sim

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// pinnedStormDigest is the transcript digest of pinStorm(1) as produced by
// the channel kernel this one replaced (commit 1b4cf2f). The process
// switch mechanism is invisible to the schedule, so the digest must never
// move; re-pin it only for a change that alters event order on purpose.
const pinnedStormDigest = "06263a8c64883d5b"

// pinStormHorizon is how much virtual time the storm covers: some 10 000
// events on the parent kernel.
const pinStormHorizon = 500 * Millisecond

// pinStorm drives a seeded storm through every
// way a process can start, park, be woken, be killed and finish — spawns
// from processes, kills of blocked, running-then-parking and not yet
// started processes, waits, bounded and unbounded channels with timeouts,
// a contended resource — and hashes the full SetTrace transcript (start
// and retire lines) interleaved with a line per process step.
func pinStorm(seed int64, ref bool) (digest string, events uint64) {
	e := NewEngine(seed)
	if ref {
		e.useReferenceHeap()
	}
	h := fnv.New64a()
	e.SetTrace(func(at Time, format string, args ...interface{}) {
		fmt.Fprintf(h, "%d ", int64(at))
		fmt.Fprintf(h, format, args...)
		h.Write([]byte{'\n'})
	})
	step := func(p *Proc, what string) {
		fmt.Fprintf(h, "%d %s %s\n", int64(p.Now()), p.Name(), what)
	}

	rng := e.DeriveRand("pin-storm")
	delay := func() Time {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return Time(rng.Intn(300))
		case 2:
			return Time(rng.Int63n(int64(30 * Microsecond)))
		default:
			return Time(rng.Int63n(int64(2 * Millisecond)))
		}
	}
	bounded := e.NewBoundedChan("bounded", 3)
	open := e.NewChan("open")
	res := e.NewResource("res", 2)
	var workers []*Proc

	bodies := []func(p *Proc){
		func(p *Proc) { // waiter
			for i, n := 0, 1+rng.Intn(6); i < n; i++ {
				p.Wait(delay())
				step(p, "woke")
			}
		},
		func(p *Proc) { // producer: blocks when the bounded buffer is full
			for i, n := 0, 1+rng.Intn(5); i < n; i++ {
				bounded.Send(p, i)
				step(p, "sent")
				open.Send(p, i)
				p.Wait(delay())
			}
		},
		func(p *Proc) { // consumer: some receives time out
			for i, n := 0, 1+rng.Intn(5); i < n; i++ {
				_, ok := bounded.RecvTimeout(p, delay())
				step(p, fmt.Sprintf("recv %v", ok))
				if v, ok := open.TryRecv(); ok {
					step(p, fmt.Sprintf("drained %v", v))
				}
			}
		},
		func(p *Proc) { // resource user
			for i, n := 0, 1+rng.Intn(4); i < n; i++ {
				res.Use(p, delay())
				step(p, "used")
			}
		},
		func(p *Proc) { // killer: the victim may be blocked, done or unstarted
			p.Wait(delay())
			v := workers[rng.Intn(len(workers))]
			step(p, "kills "+v.Name())
			v.Kill()
		},
		func(p *Proc) { // parks forever: only a kill or Shutdown ends it
			step(p, "stuck")
			e.NewSignal().Wait(p)
		},
	}
	spawn := func(at Time) {
		name := fmt.Sprintf("w%d", len(workers))
		workers = append(workers, e.SpawnAt(at, name, bodies[rng.Intn(len(bodies))]))
	}
	e.Spawn("spawner", func(p *Proc) {
		for {
			p.Wait(delay())
			spawn(p.Now())
			if rng.Intn(4) == 0 {
				spawn(p.Now() + delay()) // late start: a killer may reach it first
			}
			if rng.Intn(8) == 0 {
				workers[len(workers)-1].Kill()
			}
		}
	})

	// Deadline windows up to a virtual-time horizon: each leaves processes
	// parked mid-flight and re-enters the run loop. The storm stops on virtual
	// time, not on an executed-event count, and the event count stays out of
	// the hash, so a kernel that drops events which do nothing (a timeout
	// whose wait was already over) reproduces the digest and one that moves a
	// start, a retire or a step does not.
	for deadline := Time(0); deadline < pinStormHorizon; {
		deadline += 200 * Microsecond
		e.RunUntil(deadline)
	}
	// The last event before the horizon may be one of those no-ops; put the
	// clock on the horizon itself so Shutdown's retire lines carry one time.
	e.Schedule(pinStormHorizon, func() {})
	e.RunUntil(pinStormHorizon)
	e.Shutdown()
	fmt.Fprintf(h, "end %d %d\n", int64(e.Now()), e.LiveProcs())
	return fmt.Sprintf("%016x", h.Sum64()), e.EventsExecuted()
}

// TestSchedulePinnedAcrossSwitchMechanism holds the coroutine kernel to the
// exact schedule of the channel kernel, on the event queue and on the
// reference heap.
func TestSchedulePinnedAcrossSwitchMechanism(t *testing.T) {
	for _, ref := range []bool{false, true} {
		digest, events := pinStorm(1, ref)
		if events < 10000 {
			t.Fatalf("ref=%v: storm ran dry after %d events, want >= 10000", ref, events)
		}
		if digest != pinnedStormDigest {
			t.Errorf("ref=%v: transcript digest %s, want %s (the parent kernel's)", ref, digest, pinnedStormDigest)
		}
	}
}
