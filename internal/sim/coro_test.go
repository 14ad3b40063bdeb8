package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// mustPanic runs fn and returns the value it panicked with, failing the
// test if it returned normally.
func mustPanic(t *testing.T, fn func()) (r interface{}) {
	t.Helper()
	defer func() {
		if r = recover(); r == nil {
			t.Fatal("no panic")
		}
	}()
	fn()
	return nil
}

// TestBodyPanicReachesRunCaller: a panic in a process body surfaces in the
// goroutine that called Run, named after the process, and leaves an engine
// that can still be inspected and shut down.
func TestBodyPanicReachesRunCaller(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("stuck", func(p *Proc) { e.NewSignal().Wait(p) })
	e.Spawn("bad", func(p *Proc) {
		p.Wait(10)
		panic("boom")
	})
	r := mustPanic(t, func() { e.Run() })
	if got, want := fmt.Sprint(r), `sim: process "bad" panicked: boom`; got != want {
		t.Errorf("Run panicked with %q, want %q", got, want)
	}
	if bp := e.BlockedProcs(); len(bp) != 1 || bp[0] != "stuck" {
		t.Errorf("BlockedProcs after the panic = %v, want [stuck]", bp)
	}
	if e.LiveProcs() != 1 {
		t.Errorf("LiveProcs after the panic = %d, want 1 (the dead process is dropped)", e.LiveProcs())
	}
	e.Shutdown() // running was cleared, so this does not report re-entry
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs after Shutdown = %d, want 0", e.LiveProcs())
	}
}

// TestForeignPanicOnBorrowedStack: a callback event that panics while a
// parked process's stack is running the dispatch loop is that event's
// fault, not the process's, and is re-raised with its own value. The
// same goes for the stack of a process that has already finished.
func TestForeignPanicOnBorrowedStack(t *testing.T) {
	type mine struct{ n int }
	for _, parked := range []bool{true, false} {
		e := NewEngine(1)
		e.Spawn("host", func(p *Proc) {
			if parked {
				p.Wait(100)
			}
		})
		e.Schedule(50, func() { panic(mine{7}) })
		if r := mustPanic(t, func() { e.Run() }); r != (mine{7}) {
			t.Errorf("parked=%v: Run panicked with %#v, want the event's own mine{7}", parked, r)
		}
		e.Shutdown()
		if e.LiveProcs() != 0 {
			t.Errorf("parked=%v: LiveProcs after Shutdown = %d, want 0", parked, e.LiveProcs())
		}
	}
}

// TestRunReentryPanics: Run, RunUntil and Step called from a dispatched
// event — on the run loop's own stack or on a process's — still panic, and
// the outer run's failure leaves the engine usable.
func TestRunReentryPanics(t *testing.T) {
	for _, fromProc := range []bool{false, true} {
		e := NewEngine(1)
		if fromProc {
			e.Spawn("p", func(p *Proc) { e.Step() })
		} else {
			e.Schedule(1, func() { e.RunUntil(5) })
		}
		r := mustPanic(t, func() { e.Run() })
		if !strings.Contains(fmt.Sprint(r), "re-entered") {
			t.Errorf("fromProc=%v: panic %q does not report re-entry", fromProc, r)
		}
		ran := false
		e.Schedule(e.Now()+1, func() { ran = true })
		e.Run()
		if !ran {
			t.Errorf("fromProc=%v: engine unusable after the re-entry panic", fromProc)
		}
	}
}

// TestGoexitInBodyEndsCaller: t.FailNow (runtime.Goexit) inside a process
// body must end the goroutine that called Run — the test goroutine, in
// real use — instead of leaving it waiting for a process that is gone.
func TestGoexitInBodyEndsCaller(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("quitter", func(p *Proc) {
		p.Wait(1)
		runtime.Goexit()
	})
	done := make(chan bool)
	go func() {
		returned := false
		defer func() { done <- returned }()
		e.Run()
		returned = true
	}()
	if <-done {
		t.Error("Run returned normally; Goexit in the body did not reach its caller")
	}
	e.Shutdown()
}

// TestCoroutineReuseStartsClean: a process that starts on a recycled
// coroutine — here one whose last process was killed while blocked — has
// its own kill flag and park stamps and runs to completion.
func TestCoroutineReuseStartsClean(t *testing.T) {
	e := NewEngine(1)
	var first, second *coro
	victim := e.Spawn("victim", func(p *Proc) {
		first = p.co
		p.Wait(10)
		p.Wait(Second)
		t.Error("victim ran past its kill")
	})
	e.RunUntil(20) // victim is parked at its second Wait, blockID 2
	victim.Kill()
	e.RunUntil(20)
	if !victim.Done() || len(e.idle) != 1 || e.idle[0] != first {
		t.Fatalf("after the kill: Done=%v idle=%v, want the victim's coroutine idle", victim.Done(), e.idle)
	}

	finished := false
	heir := e.Spawn("heir", func(p *Proc) {
		second = p.co
		if p.Killed() || p.blockID != 0 {
			t.Errorf("heir starts with killed=%v blockID=%d, want a fresh process", p.Killed(), p.blockID)
		}
		p.Wait(Second)
		p.Wait(Second)
		finished = true
	})
	e.Run()
	if second != first {
		t.Error("heir did not start on the victim's idle coroutine")
	}
	if !finished || !heir.Done() || heir.Killed() {
		t.Errorf("heir finished=%v Done=%v Killed=%v, want a normal completion", finished, heir.Done(), heir.Killed())
	}
	if len(e.idle) != 1 {
		t.Errorf("idle coroutines = %d, want the one shared coroutine", len(e.idle))
	}
}

// TestFinishedCoroutineRunsSuccessor: when the process that follows a
// finished one in the schedule is a fresh start, it runs on the same
// coroutine without the run loop switching at all.
func TestFinishedCoroutineRunsSuccessor(t *testing.T) {
	e := NewEngine(1)
	var cos []*coro
	body := func(p *Proc) { cos = append(cos, p.co) }
	for i := 0; i < 3; i++ {
		e.Spawn("p", body)
	}
	e.Run()
	if len(cos) != 3 || cos[1] != cos[0] || cos[2] != cos[0] {
		t.Errorf("three back-to-back processes ran on coroutines %v, want one", cos)
	}
	if got := e.SwitchesExecuted(); got != 1 {
		t.Errorf("SwitchesExecuted = %d, want 1 (the chain is entered once)", got)
	}
}

// TestSwitchesExecutedCounts pins the counter's meaning: self-wakes are
// free, every entry of the run loop into a process counts one.
func TestSwitchesExecutedCounts(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("solo", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Wait(1)
		}
	})
	e.Run()
	if got := e.SwitchesExecuted(); got != 1 {
		t.Errorf("one self-waking process: SwitchesExecuted = %d, want 1", got)
	}

	e = NewEngine(1)
	ping, pong := e.NewChan("ping"), e.NewChan("pong")
	const rounds = 50
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			ping.Send(p, i)
			pong.Recv(p)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			ping.Recv(p)
			pong.Send(p, i)
		}
	})
	e.Run()
	if got := e.SwitchesExecuted(); got < 2*rounds || got > 2*rounds+2 {
		t.Errorf("ping-pong of %d rounds: SwitchesExecuted = %d, want about %d", rounds, got, 2*rounds)
	}
}
