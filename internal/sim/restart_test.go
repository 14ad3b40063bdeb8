package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestRestartDropsWhatThePreviousRunLeft: a restarted process keeps its park
// stamp, so whatever its previous run left queued for it stays stale. Run 1
// leaves a signal waiter (its timed wait expired) and a resource queue entry
// (it was killed while queued); run 2's first wait must run its full length
// through the trigger and the release that find them, and the unit must not
// be handed to it. Run 2 then dies in the instant its own wake-up was already
// queued, which leaves the kill's wake-up behind; run 3, restarted in that
// instant, must be neither woken nor killed by it. Resetting the stamp on
// restart delivers the trigger to run 2 and fails here.
func TestRestartDropsWhatThePreviousRunLeft(t *testing.T) {
	e := NewEngine(1)
	sig := e.NewSignal()
	r := e.NewResource("r", 1)
	e.Spawn("holder", func(h *Proc) {
		r.Acquire(h)
		h.Wait(8)
		r.Release()
	})
	runs := 0
	var woke []Time
	var killed3 bool
	var p *Proc
	p = e.Spawn("p", func(p *Proc) {
		runs++
		switch runs {
		case 1:
			sig.WaitTimeout(p, 1) // expires at 1: the waiter stays in sig's list
			r.Acquire(p)          // queued behind the holder, killed at 2
		case 2:
			p.Wait(10)
			woke = append(woke, p.Now())
			e.Schedule(p.Now(), func() {
				p.Kill()
				e.Schedule(e.Now(), p.Restart)
			})
			p.Wait(0) // its wake-up is queued ahead of the kill's
		case 3:
			p.Wait(10)
			woke = append(woke, p.Now())
			killed3 = p.Killed()
		}
	})
	e.Schedule(2, p.Kill)
	e.Schedule(3, p.Restart)
	e.Schedule(5, func() { sig.Trigger("late") })
	e.Run()

	if runs != 3 || fmt.Sprint(woke) != fmt.Sprint([]Time{13, 23}) || killed3 {
		t.Errorf("runs %d woke at %v, run 3 killed %v; want 3 runs woken at [13ns 23ns], run 3 alive", runs, woke, killed3)
	}
	if r.InUse() != 0 {
		t.Errorf("%d units in use at quiescence: the release handed the unit to the restarted process", r.InUse())
	}
	if e.Pending() != 0 || e.LiveProcs() != 0 {
		t.Errorf("%d events pending and %d processes live at quiescence", e.Pending(), e.LiveProcs())
	}
	e.Shutdown()
}

// TestRestartUnfinishedPanics: only a finished process may be restarted —
// not one whose start is still queued, one that is running, or one parked.
func TestRestartUnfinishedPanics(t *testing.T) {
	e := NewEngine(1)
	var running interface{}
	p := e.Spawn("p", func(p *Proc) {
		func() {
			defer func() { running = recover() }()
			p.Restart()
		}()
		p.Wait(10)
	})
	if msg := fmt.Sprint(mustPanic(t, p.Restart)); !strings.Contains(msg, "process p") {
		t.Errorf("Restart of a process not yet started panicked with %q, want the process named", msg)
	}
	e.RunUntil(5)
	if msg := fmt.Sprint(mustPanic(t, p.Restart)); !strings.Contains(msg, "process p") {
		t.Errorf("Restart of a parked process panicked with %q, want the process named", msg)
	}
	if running == nil {
		t.Error("Restart of the running process did not panic")
	}
	e.Run()
	p.Restart() // finished: allowed
	e.Run()
	e.Shutdown()
}

// TestRestartTakesANewSpawnID: a restart is ordered as a spawn made at the
// moment of the restart, in the live set and in Shutdown's kill order.
func TestRestartTakesANewSpawnID(t *testing.T) {
	e := NewEngine(1)
	first := true
	p := e.Spawn("p", func(p *Proc) {
		if first {
			first = false
			return
		}
		e.NewSignal().Wait(p)
	})
	e.Run()
	q := e.Spawn("q", func(q *Proc) { e.NewSignal().Wait(q) })
	p.Restart()
	e.Run()
	if p.ID() <= q.ID() {
		t.Errorf("restarted p has id %d, q %d: want p's restart after q's spawn", p.ID(), q.ID())
	}
	if got := fmt.Sprint(e.BlockedProcs()); got != "[q p]" {
		t.Errorf("BlockedProcs = %s, want [q p]", got)
	}
	e.Shutdown()
}

// TestRestartAllocatesNothing: restarting a finished process and running it to
// completion reuses its Proc, its body and an idle coroutine — no heap objects.
// A layer that keeps a process per request instead of spawning one depends on
// it.
func TestRestartAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("p", func(p *Proc) { p.Wait(1) })
	e.Run()
	cycle := func() {
		p.Restart()
		e.Run()
	}
	cycle() // the coroutine's first idling
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("Restart + run to completion allocates %v objects, want 0", allocs)
	}
	e.Shutdown()
}

// BenchmarkProcRestart measures a restart and its run: the start event, a
// park and wake, and the retire, on a warm engine (0 allocs/op).
func BenchmarkProcRestart(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	p := e.Spawn("p", func(p *Proc) { p.Wait(1) })
	e.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Restart()
		e.Run()
	}
	b.StopTimer()
	b.ReportMetric(float64(e.EventsExecuted())/float64(b.N+1), "events/op")
	e.Shutdown()
}
