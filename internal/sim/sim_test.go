package sim

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{15 * Microsecond, "15us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
		{-2 * Second, "-2s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeUnits(t *testing.T) {
	if Second != 1e9 {
		t.Fatalf("Second = %d, want 1e9", int64(Second))
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
	if got := (2500 * Nanosecond).Micros(); got != 2.5 {
		t.Errorf("Micros() = %v, want 2.5", got)
	}
	if got := (250 * Microsecond).Millis(); got != 0.25 {
		t.Errorf("Millis() = %v, want 0.25", got)
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Schedule(10, func() { got = append(got, 11) }) // same time: FIFO
	e.Run()
	want := []int{1, 11, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("execution order = %v, want %v", got, want)
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestScheduleNearHorizon(t *testing.T) {
	// Run's deadline is the full Time range (math.MaxInt64): events
	// scheduled arbitrarily close to the horizon must still execute
	// rather than being silently capped below it.
	e := NewEngine(1)
	var ran []Time
	horizon := Time(math.MaxInt64)
	e.Schedule(horizon-1, func() { ran = append(ran, e.Now()) })
	e.Schedule(horizon, func() { ran = append(ran, e.Now()) })
	e.Run()
	want := []Time{horizon - 1, horizon}
	if !reflect.DeepEqual(ran, want) {
		t.Errorf("horizon events ran at %v, want %v", ran, want)
	}
	if e.Now() != horizon {
		t.Errorf("Now() = %v, want the horizon %v", e.Now(), horizon)
	}
	if got := e.EventsExecuted(); got != 2 {
		t.Errorf("EventsExecuted() = %d, want 2", got)
	}
}

func TestEventsExecutedCounts(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Spawn("w", func(p *Proc) { p.Wait(10) })
	e.Run()
	// 5 plain events + 1 spawn start + 1 wait wake-up.
	if got := e.EventsExecuted(); got != 7 {
		t.Errorf("EventsExecuted() = %d, want 7", got)
	}
}

func TestSchedulePastClamped(t *testing.T) {
	e := NewEngine(1)
	var at Time = -1
	e.Schedule(100, func() {
		e.Schedule(50, func() { at = e.Now() }) // in the past
	})
	e.Run()
	if at != 100 {
		t.Errorf("past event ran at %v, want clamped to 100", at)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func() { ran = append(ran, at) })
	}
	e.RunUntil(25)
	if !reflect.DeepEqual(ran, []Time{10, 20}) {
		t.Fatalf("ran = %v, want [10 20]", ran)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.Run()
	if !reflect.DeepEqual(ran, []Time{10, 20, 30, 40}) {
		t.Fatalf("after Run, ran = %v", ran)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Schedule(10, func() { n++; e.Stop() })
	e.Schedule(20, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("after Stop, executed %d events, want 1", n)
	}
	e.Run()
	if n != 2 {
		t.Fatalf("after resume, executed %d events, want 2", n)
	}
}

func TestProcWait(t *testing.T) {
	e := NewEngine(1)
	var marks []Time
	e.Spawn("w", func(p *Proc) {
		marks = append(marks, p.Now())
		p.Wait(5 * Microsecond)
		marks = append(marks, p.Now())
		p.Wait(10 * Microsecond)
		marks = append(marks, p.Now())
	})
	e.Run()
	want := []Time{0, 5 * Microsecond, 15 * Microsecond}
	if !reflect.DeepEqual(marks, want) {
		t.Errorf("marks = %v, want %v", marks, want)
	}
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs() = %d, want 0", e.LiveProcs())
	}
}

func TestWaitUntil(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Spawn("w", func(p *Proc) {
		p.WaitUntil(42)
		p.WaitUntil(10) // in the past: no-op in time
		at = p.Now()
	})
	e.Run()
	if at != 42 {
		t.Errorf("finished at %v, want 42", at)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	var order []string
	mk := func(name string, d Time) {
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Wait(d)
				order = append(order, fmt.Sprintf("%s@%d", name, p.Now()))
			}
		})
	}
	mk("a", 10)
	mk("b", 15)
	e.Run()
	// At t=30 both wake; b's wake event was scheduled earlier (at t=15,
	// vs a's at t=20), so the deterministic tie-break runs b first.
	want := []string{"a@10", "b@15", "a@20", "b@30", "a@30", "b@45"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestProcKillBlocked(t *testing.T) {
	e := NewEngine(1)
	cleanup := false
	p := e.Spawn("victim", func(p *Proc) {
		defer func() { cleanup = true }()
		p.Wait(Second)
		t.Error("victim ran past its kill")
	})
	e.Spawn("killer", func(q *Proc) {
		q.Wait(10 * Millisecond)
		p.Kill()
	})
	e.Run()
	if !cleanup {
		t.Error("deferred cleanup did not run on kill")
	}
	if !p.Done() {
		t.Error("victim not Done after kill")
	}
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs() = %d, want 0", e.LiveProcs())
	}
}

func TestProcKillBeforeStart(t *testing.T) {
	for _, idle := range []int{0, 1} {
		e := NewEngine(1)
		if idle > 0 {
			// A finished process leaves its coroutine idle; the cancelled
			// start below must not take it.
			e.Spawn("early", func(p *Proc) {})
			e.Run()
		}
		if len(e.idle) != idle {
			t.Fatalf("idle coroutines = %d, want %d", len(e.idle), idle)
		}
		ran := false
		p := e.SpawnAt(100, "late", func(p *Proc) { ran = true })
		p.Kill()
		switches := e.SwitchesExecuted()
		e.Run()
		if ran {
			t.Error("killed-before-start process still ran")
		}
		if e.LiveProcs() != 0 {
			t.Errorf("LiveProcs() = %d, want 0", e.LiveProcs())
		}
		if len(e.idle) != idle || p.co != nil || e.SwitchesExecuted() != switches {
			t.Errorf("cancelled start took a coroutine: idle %d (want %d), co %v, %d switches",
				len(e.idle), idle, p.co, e.SwitchesExecuted()-switches)
		}
	}
}

func TestProcKillIdempotent(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("v", func(p *Proc) { p.Wait(Second) })
	e.Spawn("k", func(q *Proc) {
		q.Wait(1)
		p.Kill()
		p.Kill()
	})
	e.Run()
	p.Kill() // after done: no-op
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs() = %d, want 0", e.LiveProcs())
	}
}

func TestOnExit(t *testing.T) {
	e := NewEngine(1)
	exits := 0
	p := e.Spawn("x", func(p *Proc) { p.Wait(10) })
	p.OnExit(func() { exits++ })
	e.Run()
	if exits != 1 {
		t.Errorf("exit hooks ran %d times, want 1", exits)
	}
}

func TestChanRendezvous(t *testing.T) {
	e := NewEngine(1)
	ch := e.NewChan("c")
	var got []interface{}
	e.Spawn("rx", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, ch.Recv(p))
		}
	})
	e.Spawn("tx", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(10)
			ch.Send(p, i)
		}
	})
	e.Run()
	if !reflect.DeepEqual(got, []interface{}{0, 1, 2}) {
		t.Errorf("got %v, want [0 1 2]", got)
	}
}

func TestChanBufferedFIFO(t *testing.T) {
	e := NewEngine(1)
	ch := e.NewChan("c")
	var got []interface{}
	e.Spawn("tx", func(p *Proc) {
		for i := 0; i < 5; i++ {
			ch.Send(p, i)
		}
	})
	e.Spawn("rx", func(p *Proc) {
		p.Wait(100)
		for i := 0; i < 5; i++ {
			got = append(got, ch.Recv(p))
		}
	})
	e.Run()
	if !reflect.DeepEqual(got, []interface{}{0, 1, 2, 3, 4}) {
		t.Errorf("got %v", got)
	}
}

func TestChanBoundedBackpressure(t *testing.T) {
	e := NewEngine(1)
	ch := e.NewBoundedChan("c", 2)
	var sendDone Time = -1
	e.Spawn("tx", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2)
		ch.Send(p, 3) // must block until receiver drains one
		sendDone = p.Now()
	})
	e.Spawn("rx", func(p *Proc) {
		p.Wait(50)
		if v := ch.Recv(p); v != 1 {
			t.Errorf("first recv = %v, want 1", v)
		}
	})
	e.Run()
	if sendDone != 50 {
		t.Errorf("third send completed at %v, want 50", sendDone)
	}
	if ch.Len() != 2 {
		t.Errorf("channel len = %d, want 2", ch.Len())
	}
}

func TestChanRecvTimeout(t *testing.T) {
	e := NewEngine(1)
	ch := e.NewChan("c")
	var ok1, ok2 bool
	var at Time
	e.Spawn("rx", func(p *Proc) {
		_, ok1 = ch.RecvTimeout(p, 20*Microsecond)
		at = p.Now()
		var v interface{}
		v, ok2 = ch.RecvTimeout(p, Second)
		if v != "late" {
			t.Errorf("second recv = %v, want late", v)
		}
	})
	e.Spawn("tx", func(p *Proc) {
		p.Wait(Millisecond)
		ch.Send(p, "late")
	})
	e.Run()
	if ok1 {
		t.Error("first recv should have timed out")
	}
	if at != 20*Microsecond {
		t.Errorf("timeout fired at %v, want 20us", at)
	}
	if !ok2 {
		t.Error("second recv should have succeeded")
	}
}

func TestChanTimeoutThenSendNotLost(t *testing.T) {
	// A value sent after a receiver timed out must stay in the buffer for
	// the next receiver, not be delivered to the stale waiter.
	e := NewEngine(1)
	ch := e.NewChan("c")
	var second interface{}
	e.Spawn("rx", func(p *Proc) {
		if _, ok := ch.RecvTimeout(p, 10); ok {
			t.Error("recv should time out")
		}
		p.Wait(100)
		second = ch.Recv(p)
	})
	e.Spawn("tx", func(p *Proc) {
		p.Wait(50)
		ch.Send(p, "v")
	})
	e.Run()
	if second != "v" {
		t.Errorf("second recv = %v, want v", second)
	}
}

func TestChanTrySendTryRecv(t *testing.T) {
	e := NewEngine(1)
	ch := e.NewBoundedChan("c", 1)
	if _, ok := ch.TryRecv(); ok {
		t.Error("TryRecv on empty channel succeeded")
	}
	if !ch.TrySend(7) {
		t.Error("TrySend on empty bounded channel failed")
	}
	if ch.TrySend(8) {
		t.Error("TrySend on full channel succeeded")
	}
	v, ok := ch.TryRecv()
	if !ok || v != 7 {
		t.Errorf("TryRecv = %v,%v want 7,true", v, ok)
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine(1)
	r := e.NewResource("disk", 1)
	var order []string
	serve := func(name string, arrive Time) {
		e.SpawnAt(arrive, name, func(p *Proc) {
			r.Acquire(p)
			order = append(order, name)
			p.Wait(100)
			r.Release()
		})
	}
	serve("a", 0)
	serve("b", 10)
	serve("c", 20)
	e.Run()
	if !reflect.DeepEqual(order, []string{"a", "b", "c"}) {
		t.Errorf("service order = %v, want [a b c]", order)
	}
	if e.Now() != 300 {
		t.Errorf("finished at %v, want 300", e.Now())
	}
	if r.InUse() != 0 {
		t.Errorf("InUse = %d, want 0", r.InUse())
	}
}

func TestResourceMultiUnit(t *testing.T) {
	e := NewEngine(1)
	r := e.NewResource("cpu", 2)
	var done []Time
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Use(p, 100)
			done = append(done, p.Now())
		})
	}
	e.Run()
	want := []Time{100, 100, 200, 200}
	if !reflect.DeepEqual(done, want) {
		t.Errorf("completion times = %v, want %v", done, want)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEngine(1)
	r := e.NewResource("r", 1)
	if !r.TryAcquire() {
		t.Fatal("TryAcquire on free resource failed")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire on busy resource succeeded")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after release failed")
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := NewEngine(1)
	r := e.NewResource("r", 1)
	defer func() {
		if recover() == nil {
			t.Error("Release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceKilledWaiterSkipped(t *testing.T) {
	e := NewEngine(1)
	r := e.NewResource("r", 1)
	got := ""
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Wait(100)
		r.Release()
	})
	victim := e.Spawn("victim", func(p *Proc) {
		p.Wait(1)
		r.Acquire(p)
		got = "victim"
		r.Release()
	})
	e.Spawn("heir", func(p *Proc) {
		p.Wait(2)
		r.Acquire(p)
		got = "heir"
		r.Release()
	})
	e.Spawn("killer", func(p *Proc) {
		p.Wait(50)
		victim.Kill()
	})
	e.Run()
	if got != "heir" {
		t.Errorf("resource went to %q, want heir", got)
	}
	if r.InUse() != 0 {
		t.Errorf("InUse = %d, want 0", r.InUse())
	}
}

// TestResourceKilledHolderAndWaiterSameInstant is a CPU failure in
// miniature: the holder and a queued waiter are killed in spawn order at one
// instant, and both kill wake-ups are queued before either unwinds. When the
// holder was spawned first it unwinds first, and its deferred Release finds
// the waiter killed but still parked: handing it the unit would leak it,
// because the waiter unwinds out of Acquire and never releases.
func TestResourceKilledHolderAndWaiterSameInstant(t *testing.T) {
	for _, holderFirst := range []bool{true, false} {
		e := NewEngine(1)
		r := e.NewResource("r", 1)
		holder := func(p *Proc) { r.Use(p, Second) }
		waiter := func(p *Proc) {
			p.Wait(1) // the holder is in by now, whoever was spawned first
			r.Use(p, Second)
		}
		var victims []*Proc
		if holderFirst {
			victims = []*Proc{e.Spawn("holder", holder), e.Spawn("waiter", waiter)}
		} else {
			victims = []*Proc{e.Spawn("waiter", waiter), e.Spawn("holder", holder)}
		}
		e.Schedule(Millisecond, func() {
			for _, p := range victims {
				p.Kill()
			}
		})
		ran := false
		e.SpawnAt(2*Millisecond, "heir", func(p *Proc) {
			r.Use(p, 1)
			ran = true
		})
		e.RunUntil(Minute)
		if r.InUse() != 0 || !ran {
			t.Errorf("holder spawned first=%v: InUse = %d, heir ran = %v; want 0, true", holderFirst, r.InUse(), ran)
		}
		e.Shutdown()
	}
}

// TestResourceGrantedThenKilledSameInstant is the mirror image: Release has
// already handed the unit to a live waiter and queued its grant when the
// waiter is killed, in the same instant and before the grant is dispatched.
// The waiter unwinds out of Acquire without ever holding the unit as far as
// its own code can tell, so the kernel gives it back.
func TestResourceGrantedThenKilledSameInstant(t *testing.T) {
	e := NewEngine(1)
	r := e.NewResource("r", 1)
	e.Spawn("holder", func(p *Proc) { r.Use(p, 100) })
	waiter := e.Spawn("waiter", func(p *Proc) {
		defer func() {
			if !p.Killed() {
				t.Error("waiter returned from Use")
			}
		}()
		r.Use(p, Second)
	})
	e.Spawn("killer", func(p *Proc) {
		p.Wait(100) // queued behind the holder's wake-up: runs after its Release
		if r.InUse() != 1 || r.QueueLen() != 0 {
			t.Errorf("at the kill: InUse %d, queue %d; want the unit handed over", r.InUse(), r.QueueLen())
		}
		waiter.Kill()
	})
	ran := false
	e.SpawnAt(200, "heir", func(p *Proc) {
		r.Use(p, 1)
		ran = true
	})
	e.RunUntil(Minute)
	if r.InUse() != 0 || !ran || e.Now() != 201 {
		t.Errorf("InUse = %d, heir ran = %v, clock %d; want 0, true, 201", r.InUse(), ran, e.Now())
	}
	if st := r.WaitStats(); st.Waits != 0 {
		t.Errorf("%d waits folded in, want 0: the killed waiter never took delivery", st.Waits)
	}
	e.Shutdown()
}

func TestSignal(t *testing.T) {
	e := NewEngine(1)
	s := e.NewSignal()
	var got []interface{}
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			got = append(got, s.Wait(p))
		})
	}
	e.Spawn("t", func(p *Proc) {
		p.Wait(10)
		s.Trigger("done")
	})
	e.Run()
	if !reflect.DeepEqual(got, []interface{}{"done", "done", "done"}) {
		t.Errorf("got %v", got)
	}
	// Wait after fire returns immediately.
	var lateAt Time = -1
	e.Spawn("late", func(p *Proc) {
		if v := s.Wait(p); v != "done" {
			t.Errorf("late wait = %v", v)
		}
		lateAt = p.Now()
	})
	e.Run()
	if lateAt != 10 {
		t.Errorf("late waiter finished at %v, want 10", lateAt)
	}
}

func TestSignalTriggerTwicePanics(t *testing.T) {
	e := NewEngine(1)
	s := e.NewSignal()
	s.Trigger(nil)
	defer func() {
		if recover() == nil {
			t.Error("double Trigger did not panic")
		}
	}()
	s.Trigger(nil)
}

func TestSignalWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	s := e.NewSignal()
	var ok bool
	e.Spawn("w", func(p *Proc) {
		_, ok = s.WaitTimeout(p, 5)
	})
	e.Run()
	if ok {
		t.Error("WaitTimeout on never-fired signal returned ok")
	}
	if !s.Fired() == false {
		t.Error("signal should not be fired")
	}
}

func TestShutdownKillsServers(t *testing.T) {
	e := NewEngine(1)
	ch := e.NewChan("req")
	e.Spawn("server", func(p *Proc) {
		for {
			ch.Recv(p) // blocks forever
		}
	})
	e.RunUntil(100)
	if e.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want 1", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Errorf("after Shutdown, LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestBlockedProcs(t *testing.T) {
	e := NewEngine(1)
	ch := e.NewChan("c")
	e.Spawn("stuck", func(p *Proc) { ch.Recv(p) })
	e.Run()
	bp := e.BlockedProcs()
	if len(bp) != 1 || bp[0] != "stuck" {
		t.Errorf("BlockedProcs = %v, want [stuck]", bp)
	}
	e.Shutdown()
}

func TestDeriveRandDeterministic(t *testing.T) {
	a := NewEngine(42).DeriveRand("disk0")
	b := NewEngine(42).DeriveRand("disk0")
	c := NewEngine(42).DeriveRand("disk1")
	sameAsA := true
	differsFromC := false
	for i := 0; i < 32; i++ {
		x, y, z := a.Int63(), b.Int63(), c.Int63()
		if x != y {
			sameAsA = false
		}
		if x != z {
			differsFromC = true
		}
	}
	if !sameAsA {
		t.Error("same seed+name produced different streams")
	}
	if !differsFromC {
		t.Error("different names produced identical streams")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		e := NewEngine(7)
		var log []string
		ch := e.NewChan("c")
		rng := e.DeriveRand("jitter")
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("p%d", i)
			e.Spawn(name, func(p *Proc) {
				p.Wait(Time(rng.Intn(100)))
				ch.Send(p, name)
			})
		}
		e.Spawn("rx", func(p *Proc) {
			for i := 0; i < 5; i++ {
				v := ch.Recv(p)
				log = append(log, fmt.Sprintf("%v@%d", v, p.Now()))
			}
		})
		e.Run()
		return log
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical runs diverged:\n%v\n%v", a, b)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine(1)
	var childAt Time
	e.Spawn("parent", func(p *Proc) {
		p.Wait(10)
		e.Spawn("child", func(c *Proc) {
			c.Wait(5)
			childAt = c.Now()
		})
		p.Wait(100)
	})
	e.Run()
	if childAt != 15 {
		t.Errorf("child finished at %v, want 15", childAt)
	}
}

// Property: N processes each waiting a random duration all complete at
// exactly their requested times, regardless of spawn order.
func TestWaitCompletionProperty(t *testing.T) {
	prop := func(durs []uint16) bool {
		if len(durs) > 64 {
			durs = durs[:64]
		}
		e := NewEngine(3)
		got := make([]Time, len(durs))
		for i, d := range durs {
			i, d := i, Time(d)
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Wait(d)
				got[i] = p.Now()
			})
		}
		e.Run()
		for i, d := range durs {
			if got[i] != Time(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a channel delivers values in exactly send order even with
// many interleaved senders at distinct times.
func TestChanOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 48 {
			delays = delays[:48]
		}
		e := NewEngine(9)
		ch := e.NewChan("c")
		type tag struct {
			at  Time
			seq int
		}
		for i, d := range delays {
			i, d := i, Time(d)
			e.Spawn(fmt.Sprintf("tx%d", i), func(p *Proc) {
				p.Wait(d)
				ch.Send(p, tag{p.Now(), i})
			})
		}
		var got []tag
		e.Spawn("rx", func(p *Proc) {
			for range delays {
				got = append(got, ch.Recv(p).(tag))
			}
		})
		e.Run()
		if len(got) != len(delays) {
			return false
		}
		// Delivery must be sorted by (time, spawn order) — the engine's
		// deterministic tie-break.
		return sort.SliceIsSorted(got, func(a, b int) bool {
			if got[a].at != got[b].at {
				return got[a].at < got[b].at
			}
			return got[a].seq < got[b].seq
		})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
