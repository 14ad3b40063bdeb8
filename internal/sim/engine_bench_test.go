package sim

import (
	"math"
	"testing"
)

// BenchmarkEngineScheduleDispatch measures the kernel's raw event cost:
// one Schedule plus one dispatch per iteration, self-rescheduling so the
// heap stays warm. Steady state must report 0 allocs/op — the hot loop
// moves event values inside the heap slice and never boxes.
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

// BenchmarkEngineScheduleDispatchDeep is the same loop over a heap kept
// 1024 events deep, so sift costs at realistic queue depths are visible.
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
