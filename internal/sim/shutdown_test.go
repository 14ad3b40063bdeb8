package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"
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

// drainSpareCoros empties the process-wide pool of spare coroutines,
// stopping what it held, so a test starts from fresh coroutines whatever ran
// before it.
func drainSpareCoros() {
	for c := takeSpareCoro(); c != nil; c = takeSpareCoro() {
		c.stop()
	}
}

// spareCoroSet returns the coroutines the pool holds.
func spareCoroSet() map[*coro]bool {
	set := make(map[*coro]bool)
	for i := range spareCoros {
		if c := spareCoros[i].Load(); c != nil {
			set[c] = true
		}
	}
	return set
}

// TestShutdownReleasesCoroutines: every coroutine an engine created is a
// goroutine that only Shutdown can end or hand on — finished processes leave
// theirs idle for reuse, and the collector never frees a parked goroutine. A
// sweep builds thousands of engines, so after Shutdown none may remain bound
// to its engine, and the goroutines left parked in the pool stay within its
// cap: here exactly the coroutines one engine needed, since each engine
// after the first runs on the ones its predecessor handed on.
func TestShutdownReleasesCoroutines(t *testing.T) {
	drainSpareCoros()
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
	pooled := spareCoroSet()
	if len(pooled) == 0 {
		t.Fatal("Shutdown pooled no coroutine")
	}
	for c := range pooled {
		if c.eng != nil || c.p != nil {
			t.Errorf("a pooled coroutine is still bound: engine %p, process %v", c.eng, c.p)
		}
	}
	// More is a leak; fewer only means an earlier test's goroutine has
	// finished exiting in the meantime.
	if after := runtime.NumGoroutine(); after > before+len(pooled) {
		t.Errorf("goroutines: %d before, %d after 200 engines were shut down, %d of them pooled", before, after, len(pooled))
	}

	// An engine that leaves more idle coroutines than the pool has slots
	// stops the rest.
	e := NewEngine(1)
	for i := 0; i < coroSlots+8; i++ {
		e.Spawn("stuck", func(p *Proc) { e.NewSignal().Wait(p) })
	}
	e.Run()
	e.Shutdown()
	if n := len(spareCoroSet()); n != coroSlots {
		t.Errorf("the pool holds %d coroutines after an engine left %d idle, want its cap %d", n, coroSlots+8, coroSlots)
	}
	if after := runtime.NumGoroutine(); after > before+coroSlots {
		t.Errorf("goroutines: %d before, %d with a full pool of %d", before, after, coroSlots)
	}
	drainSpareCoros()
}

// mallocs returns the heap objects the process has allocated so far.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// TestPooledCoroutinesKeepTheSchedule: a storm run on coroutines another
// engine handed on dispatches the same events — same instants, sequence
// numbers, targets and park stamps — and leaves the same results as on fresh
// ones. The storm leaves more processes parked than the pool has slots, so
// its rerun takes every pooled coroutine, which shows as the ten-odd objects
// apiece it does not allocate.
func TestPooledCoroutinesKeepTheSchedule(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, stepped := range []bool{false, true} {
			drainSpareCoros()
			m0 := mallocs()
			fresh, _ := scriptStorm(seed, stepped, true)
			m1 := mallocs()
			if n := len(spareCoroSet()); n != coroSlots {
				t.Fatalf("seed %d: the storm pooled %d coroutines, want a full pool of %d", seed, n, coroSlots)
			}
			reused, _ := scriptStorm(seed, stepped, true)
			m2 := mallocs()
			if a, b := strings.Join(fresh, "\n"), strings.Join(reused, "\n"); a != b {
				t.Fatalf("seed %d stepped=%v: the storm on pooled coroutines dispatched a different schedule", seed, stepped)
			}
			if saved := int64(m1-m0) - int64(m2-m1); saved < 10*coroSlots {
				t.Errorf("seed %d stepped=%v: the rerun allocated %d objects, %d fewer than on fresh coroutines; want %d fewer or more", seed, stepped, m2-m1, saved, 10*coroSlots)
			}
		}
	}
	// The pinned storm, on the coroutines its own first run handed on.
	drainSpareCoros()
	pinStorm(1, false)
	if got, _ := pinStorm(1, false); got != pinnedStormDigest {
		t.Errorf("pinned storm on pooled coroutines: digest %s, want %s", got, pinnedStormDigest)
	}
	drainSpareCoros()
}

// TestEnginesShareSparesAcrossGoroutines runs engines on several goroutines
// at once, as bench's worker pool does, on coroutines an engine on another
// goroutine handed on: each run's transcript matches the serial run's, and
// under -race the hand-overs race with nothing.
func TestEnginesShareSparesAcrossGoroutines(t *testing.T) {
	const workers, rounds = 4, 3
	want := make([]string, workers)
	for w := range want {
		want[w], _ = pinStorm(int64(w+1), false) // fills the pool from this goroutine
	}
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				d, _ := pinStorm(int64(w+1), false)
				got[w] = append(got[w], d)
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for r, d := range got[w] {
			if d != want[w] {
				t.Errorf("seed %d, round %d on a shared pool: digest %s, want the serial run's %s", w+1, r, d, want[w])
			}
		}
	}
}

// TestShutDownEngineIsCollected: the coroutines an engine hands on refer
// neither to it nor to its processes, so once the caller drops it the
// collector frees it, pool or no pool.
func TestShutDownEngineIsCollected(t *testing.T) {
	drainSpareCoros()
	wp := func() weak.Pointer[Engine] {
		e := NewEngine(1)
		ch := e.NewChan("work")
		e.Spawn("server", func(p *Proc) {
			for {
				ch.Recv(p)
			}
		})
		for i := 0; i < 3; i++ {
			e.Spawn("txn", func(p *Proc) {
				p.Wait(Time(i))
				ch.Send(p, i)
			})
		}
		e.Run()
		e.Shutdown()
		return weak.Make(e)
	}()
	if len(spareCoroSet()) == 0 {
		t.Fatal("Shutdown pooled no coroutine; the test exercises nothing")
	}
	runtime.GC()
	runtime.GC()
	if wp.Value() != nil {
		t.Error("a shut-down engine is still reachable after a collection: a pooled coroutine keeps it alive")
	}
}

// TestPanickedCoroutineNeverPooled: a panic that is not a kill ends the
// coroutine it unwinds — the panicking body's own, or that of the parked
// process whose stack another event's code was borrowing — so that one
// never reaches the pool, while the engine's healthy coroutines do, and
// serve the next engine.
func TestPanickedCoroutineNeverPooled(t *testing.T) {
	type mine struct{}
	for _, own := range []bool{true, false} {
		drainSpareCoros()
		e := NewEngine(1)
		var dead *coro
		e.Spawn("stuck", func(p *Proc) { e.NewSignal().Wait(p) })
		e.Spawn("victim", func(p *Proc) {
			dead = p.co
			p.Wait(10)
			if own {
				panic("boom")
			}
		})
		if !own {
			e.Schedule(5, func() { panic(mine{}) }) // runs on the victim's stack
		}
		mustPanic(t, func() { e.Run() })
		e.Shutdown()
		pool := spareCoroSet()
		if pool[dead] {
			t.Fatalf("own=%v: the coroutine the panic unwound was pooled", own)
		}
		if len(pool) != 1 {
			t.Fatalf("own=%v: the pool holds %d coroutines, want the stuck process's one", own, len(pool))
		}
		ran := 0
		e2 := NewEngine(2)
		for i := 0; i < 3; i++ {
			e2.Spawn("next", func(p *Proc) {
				p.Wait(1)
				ran++
			})
		}
		e2.Run()
		e2.Shutdown()
		if ran != 3 {
			t.Errorf("own=%v: %d of 3 processes ran on the next engine", own, ran)
		}
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
