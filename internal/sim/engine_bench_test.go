package sim

import (
	"math"
	"testing"
	"unsafe"
)

// BenchmarkEngineScheduleDispatch measures the kernel's raw event cost:
// one Schedule plus one dispatch per iteration, self-rescheduling so the
// queue stays warm. Steady state must report 0 allocs/op — the hot loop
// moves event values inside the queue's slices and never boxes. The delay,
// now + 1, is one the repository's workloads almost never produce (a few
// dozen times in tens of millions of inserts): MixedTraffic below is the
// benchmark that looks like them.
func BenchmarkEngineScheduleDispatch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.Schedule(e.Now()+1, step)
		}
	}
	e.Schedule(1, step)
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	b.ReportMetric(float64(e.EventsExecuted())/float64(b.N), "events/op")
}

// TestScheduleDispatchAllocatesNothing is the benchmark's 0 allocs/op as a
// gate: one Schedule plus its dispatch on a warm engine must not touch the
// heap. Every simulated transaction costs a few hundred of these.
func TestScheduleDispatchAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	step := func() {}
	cycle := func() {
		e.Schedule(e.Now()+1, step)
		e.Run()
	}
	cycle() // the heap slice's first growth
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("Schedule+dispatch allocates %v objects per event, want 0", allocs)
	}

	// The same-instant hand-off, half of all traffic: a value sent to a
	// parked receiver is a wake-up for the current instant (the queue's lane),
	// and the receiver parks again.
	inbox, got := e.NewChan("inbox"), 0
	e.Spawn("receiver", func(p *Proc) {
		for {
			inbox.Recv(p)
			got++
		}
	})
	handoff := func() {
		for i := 0; i < 4; i++ {
			inbox.TrySend(nil)
			e.RunUntil(e.Now())
		}
	}
	e.RunUntil(e.Now())
	if e.q.cur != e.Now() {
		t.Fatalf("the queue's current instant is %d at %d: the hand-offs would go through the heap", e.q.cur, e.Now())
	}
	handoff() // the lane's first growth
	if allocs := testing.AllocsPerRun(1000, handoff); allocs != 0 || got != 4*1002 || inbox.Len() != 0 {
		t.Errorf("TrySend + wake-up allocates %v objects per 4 hand-offs, want 0 (%d received, %d buffered)", allocs, got, inbox.Len())
	}

	// The timed wait of every cluster call: arm a timeout, be woken by the
	// trigger, have the timeout removed. Eight waiters, so the removals sift.
	var sigs [8]*Signal
	for i := range sigs {
		e.Spawn("timed", func(p *Proc) {
			for {
				sigs[i] = e.NewSignal()
				sigs[i].WaitTimeout(p, Time(i+1)*Second)
				e.FreeSignal(sigs[i])
			}
		})
	}
	timed := func() {
		for _, s := range sigs {
			s.Trigger(nil)
		}
		e.RunUntil(e.Now())
	}
	e.RunUntil(e.Now())
	timed() // the timeout heap's and the signal pool's first growth
	if allocs := testing.AllocsPerRun(1000, timed); allocs != 0 {
		t.Errorf("arm + wake + remove allocates %v objects per 8 timed waits, want 0", allocs)
	}
	if len(e.tmo) != len(sigs) || e.Pending() != len(sigs) {
		t.Errorf("%d timeouts armed, %d pending; want the %d waits in flight and nothing else", len(e.tmo), e.Pending(), len(sigs))
	}
	e.Shutdown()
}

// TestEngineFootprint holds the engine to a struct a few cache lines long:
// the scheduler is five slices and a clock (the timing wheel it replaced
// carried 6 x 256 bucket headers and its bitmaps inline, ~37 KB an engine,
// and the fault matrix builds 67 stores a rep).
func TestEngineFootprint(t *testing.T) {
	if n := unsafe.Sizeof(Engine{}); n > 1024 {
		t.Errorf("Engine is %d bytes, want under 1 KB", n)
	}
	// What the queue retains follows the deepest it has been, not how long
	// it has run.
	e := NewEngine(1)
	for i := 0; i < 100; i++ {
		e.Schedule(0, func() {})
		e.Schedule(Time(1+i%7), func() {})
	}
	e.Run()
	deep := e.QueueCapacity()
	if deep < 200 || deep > 1000 {
		t.Errorf("room for %d events after 100 + 100 were pending at once, want 200 and the slack of doubling", deep)
	}
	for i := 0; i < 10000; i++ {
		e.After(Time(i%3), func() {})
		e.Run()
	}
	if c := e.QueueCapacity(); c != deep {
		t.Errorf("room for %d events after 10 000 more, one at a time; it was %d", c, deep)
	}
}

// BenchmarkEngineMixedTraffic schedules what the workloads schedule
// (DESIGN.md §5 has the counts): half of all events are wake-ups for the
// current instant, the other half waits of 1-60 µs, with about ten pending.
// Ten chains each alternate a timed hop with a zero-delay one.
func BenchmarkEngineMixedTraffic(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	rng := e.DeriveRand("mixed")
	var delays [1 << 10]Time
	for i := range delays {
		delays[i] = Microsecond + Time(rng.Int63n(int64(59*Microsecond)))
	}
	n := 0
	var timed, handoff func()
	timed = func() {
		if n++; n < b.N {
			e.Schedule(e.Now(), handoff)
		}
	}
	handoff = func() {
		if n++; n < b.N {
			e.Schedule(e.Now()+delays[n%len(delays)], timed)
		}
	}
	for i := 0; i < 10; i++ {
		e.Schedule(delays[i], timed)
	}
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	b.ReportMetric(float64(e.EventsExecuted())/float64(b.N), "events/op")
}

// BenchmarkEngineScheduleDispatchDeep is the ScheduleDispatch loop with 1024
// far-out events resident: the heap's worst case, ten levels of sift for
// every event, and the evidence for the trade DESIGN.md §5 records (no run
// in the repository holds more than 134).
func BenchmarkEngineScheduleDispatchDeep(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	const depth = 1024
	for i := 0; i < depth; i++ {
		e.Schedule(Time(math.MaxInt64)-Time(i), func() {})
	}
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.Schedule(e.Now()+1, step)
		}
	}
	e.Schedule(1, step)
	b.ResetTimer()
	e.RunUntil(Time(b.N) + 1)
	b.StopTimer()
	b.ReportMetric(float64(e.EventsExecuted())/float64(b.N), "events/op")
}

// BenchmarkProcWaitLoop measures the process path: one Wait park/wake
// cycle per iteration (Schedule + dispatch; a self-wake, so no switch).
func BenchmarkProcWaitLoop(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
		}
	})
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	b.ReportMetric(float64(e.EventsExecuted())/float64(b.N), "events/op")
}

// BenchmarkTimeoutArmCancel measures the timed wait every cluster call
// makes: Signal.WaitTimeout arms a timeout and parks, Trigger wakes the
// process, the wake-up removes the timeout. One process and one event
// callback alternate, so each iteration is two events and one switch-free
// wake; set it beside ProcWaitLoop for what the timeout adds to a park.
func BenchmarkTimeoutArmCancel(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	var sig *Signal
	trigger := func() { sig.Trigger(nil) }
	e.Spawn("caller", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			sig = e.NewSignal()
			e.Schedule(e.Now()+1, trigger)
			sig.WaitTimeout(p, 2*Second)
			e.FreeSignal(sig)
		}
	})
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	b.ReportMetric(float64(e.EventsExecuted())/float64(b.N), "events/op")
}

// BenchmarkEngineLifecycle is the kernel's share of building a store, on
// its own: an engine, 30 processes in the shapes a store spawns — ten
// servers that park for good on their inbox and twenty transient ones,
// about five alive at a time, that each wait and send to them — run to
// quiescence and shut down. The fault matrix builds 67 stores a rep; what
// one costs here beyond its processes' own work is their coroutines.
func BenchmarkEngineLifecycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine(int64(i))
		inbox := e.NewChan("inbox")
		for s := 0; s < 10; s++ {
			e.Spawn("server", func(p *Proc) {
				for {
					inbox.Recv(p)
				}
			})
		}
		for c := 0; c < 20; c++ {
			e.SpawnAt(Time(c)*Microsecond, "txn", func(p *Proc) {
				p.Wait(5 * Microsecond)
				inbox.Send(p, c)
			})
		}
		e.Run()
		e.Shutdown()
	}
}
