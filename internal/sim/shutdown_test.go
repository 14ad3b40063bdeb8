package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// shutdownSequence spawns n processes that park forever, lets them block,
// and returns (blocked-process names, exit order under Shutdown).
func shutdownSequence(seed int64, n int) (blocked, exits []string) {
	eng := NewEngine(seed)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("proc%d", i)
		p := eng.Spawn(name, func(sp *Proc) {
			eng.NewSignal().Wait(sp) // parks forever; only Kill unwinds it
		})
		p.OnExit(func() { exits = append(exits, name) })
	}
	eng.RunUntil(eng.Now()) // let every process start and park
	blocked = eng.BlockedProcs()
	eng.Shutdown()
	return blocked, exits
}

// TestShutdownSpawnOrder pins the determinism fix for Engine.Shutdown and
// BlockedProcs: both must follow spawn order, never map iteration order.
// Kill order is schedule-visible (each kill enqueues a wake-up and fires
// exit hooks), so a map-ordered walk here broke byte-identical replay.
func TestShutdownSpawnOrder(t *testing.T) {
	const n = 16
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("proc%d", i)
	}
	blocked, exits := shutdownSequence(1, n)
	if !reflect.DeepEqual(blocked, want) {
		t.Errorf("BlockedProcs = %v, want spawn order %v", blocked, want)
	}
	if !reflect.DeepEqual(exits, want) {
		t.Errorf("Shutdown exit order = %v, want spawn order %v", exits, want)
	}
}

// TestShutdownRunToRunIdentical re-runs the same shutdown under the same
// seed: the observable event sequence must be identical across runs (Go
// randomizes map order per process, so this catches any residual map-order
// dependence even if spawn order itself were relaxed).
func TestShutdownRunToRunIdentical(t *testing.T) {
	const n = 16
	b1, e1 := shutdownSequence(7, n)
	for run := 0; run < 4; run++ {
		b2, e2 := shutdownSequence(7, n)
		if !reflect.DeepEqual(b1, b2) {
			t.Fatalf("run %d: BlockedProcs diverged: %v vs %v", run, b1, b2)
		}
		if !reflect.DeepEqual(e1, e2) {
			t.Fatalf("run %d: exit order diverged: %v vs %v", run, e1, e2)
		}
	}
}

// TestShutdownReleasesCoroutines: every coroutine an engine created is a
// goroutine that only Shutdown can end — finished processes leave theirs
// idle for reuse, and the collector never frees a parked goroutine. A sweep
// builds thousands of engines, so after Shutdown none may remain.
func TestShutdownReleasesCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		e := NewEngine(int64(i))
		ch := e.NewChan("work")
		for w := 0; w < 4; w++ {
			e.Spawn("server", func(p *Proc) { // blocked for good: Shutdown kills it
				for {
					ch.Recv(p)
				}
			})
		}
		e.Spawn("client", func(p *Proc) {
			for k := 0; k < 8; k++ {
				// Transient processes that overlap, so several coroutines
				// are alive at once and go idle when they retire.
				e.Spawn("txn", func(q *Proc) {
					q.Wait(5)
					ch.Send(q, k)
				})
				p.Wait(2)
			}
		})
		e.Run()
		if len(e.idle) == 0 {
			t.Fatal("no idle coroutine before Shutdown; the test exercises nothing")
		}
		e.Shutdown()
		if e.LiveProcs() != 0 || len(e.idle) != 0 {
			t.Fatalf("engine %d after Shutdown: %d live processes, %d idle coroutines", i, e.LiveProcs(), len(e.idle))
		}
	}
	// More is a leak; fewer only means an earlier test's goroutine has
	// finished exiting in the meantime.
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after 200 engines were shut down", before, after)
	}
}

// TestReaperRunsAheadOfExitCallbacks: the spawner's hook (SetReaper) fires
// once, with its process, before any OnExit callback — where the closure it
// replaces sat, first in the list — and processes retire in spawn order
// under Shutdown whichever kind of hook they carry. One func value serves
// every process.
func TestReaperRunsAheadOfExitCallbacks(t *testing.T) {
	eng := NewEngine(1)
	var log []string
	reap := func(p *Proc) { log = append(log, "reap "+p.Name()) }
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("proc%d", i)
		p := eng.Spawn(name, func(sp *Proc) {
			eng.NewSignal().Wait(sp) // parks forever; only Kill unwinds it
		})
		p.OnExit(func() { log = append(log, "exit "+name) })
		p.SetReaper(reap) // installed after OnExit, still first to run
	}
	done := eng.Spawn("done", func(sp *Proc) {}) // finishes on its own
	done.SetReaper(reap)
	eng.RunUntil(eng.Now())
	eng.Shutdown()
	want := []string{"reap done",
		"reap proc0", "exit proc0", "reap proc1", "exit proc1", "reap proc2", "exit proc2"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("hooks ran as %v, want %v", log, want)
	}
}
