package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// onBothSchedulers runs program on the event queue and on the reference
// heap and returns the transcript it wrote, which must be the same on both.
func onBothSchedulers(t *testing.T, seed int64, program func(e *Engine, note func(format string, args ...interface{}))) []string {
	t.Helper()
	var out [2][]string
	for i, ref := range []bool{false, true} {
		e := NewEngine(seed)
		if ref {
			e.useReferenceHeap()
		}
		program(e, func(format string, args ...interface{}) {
			out[i] = append(out[i], fmt.Sprintf("%d ", int64(e.Now()))+fmt.Sprintf(format, args...))
		})
		checkTimeoutHeap(t, e)
		e.Shutdown()
		if n := len(e.tmo); n != 0 {
			t.Errorf("ref=%v: %d timeouts still armed after Shutdown", ref, n)
		}
	}
	for j := range out[0] {
		if j >= len(out[1]) || out[0][j] != out[1][j] {
			t.Fatalf("seed %d: event queue and reference heap diverge at line %d:\nqueue %q\nheap  %q", seed, j, out[0][j:], out[1][min(j, len(out[1])):])
		}
	}
	if len(out[1]) > len(out[0]) {
		t.Fatalf("seed %d: the reference heap goes on after the event queue stops: %q", seed, out[1][len(out[0]):])
	}
	return out[0]
}

// checkTimeoutHeap verifies the armed-timeout heap: (at, seq) heap order,
// back-indices, and that only parked processes are in it.
func checkTimeoutHeap(t *testing.T, e *Engine) {
	t.Helper()
	for i, p := range e.tmo {
		if int(p.tmoIdx) != i+1 {
			t.Fatalf("tmo[%d] = %s carries back-index %d", i, p.name, p.tmoIdx)
		}
		if p.state != procBlocked {
			t.Fatalf("tmo[%d] = %s is armed but not parked (state %d)", i, p.name, p.state)
		}
		if i > 0 && tmoLess(p, e.tmo[(i-1)/2]) {
			t.Fatalf("tmo[%d] = %s (%d,%d) sorts before its parent", i, p.name, p.tmoAt, p.tmoSeq)
		}
	}
}

func wantTranscript(t *testing.T, got, want []string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("transcript\n got %q\nwant %q", got, want)
	}
}

// TestTimeoutFiresInEventOrder pins where a live timeout lands among events
// of its own nanosecond — the order the parent kernel, whose timeouts were
// events, produced for this program (the test passes unchanged there). A
// timeout takes the (at, seq) slot it was armed with. `before` was scheduled
// ahead of w's arming, so it runs first and its trigger ends w's wait: w
// sees the value and its timeout never fires. `after` was scheduled behind
// s's arming, so s's timeout expires first; expiring only queues the
// wake-up, behind everything already queued for the instant, so `after`
// still runs before s does and finds s parked, but its hand-off comes too
// late: the wake-up that reaches s first is the timeout's, and the
// hand-off's arrives stale — value included, then as now (ROADMAP item 3
// lists it as a lead).
func TestTimeoutFiresInEventOrder(t *testing.T) {
	got := onBothSchedulers(t, 1, func(e *Engine, note func(string, ...interface{})) {
		sig, c := e.NewSignal(), e.NewChan("c")
		e.Schedule(100, func() {
			note("before")
			sig.Trigger("in time")
		})
		e.Spawn("w", func(p *Proc) {
			v, ok := sig.WaitTimeout(p, 100)
			note("w woke %v %v", v, ok)
		})
		e.Spawn("s", func(p *Proc) {
			v, ok := c.RecvTimeout(p, 100)
			note("s woke %v %v", v, ok)
		})
		e.RunUntil(50) // both parked, both armed
		e.Schedule(100, func() {
			note("after")
			c.TrySend("late")
		})
		e.Run()
		note("left in c: %d", c.Len())
	})
	wantTranscript(t, got, []string{"100 before", "100 after", "100 w woke in time true", "100 s woke <nil> false", "100 left in c: 0"})
}

// TestTimeoutFiresBeforeLaterEvents expires a timeout while the scheduler
// holds only later events: the clock must stop at the timeout instead of
// running on to the next event, the wake-up and what the woken process does
// next go in ahead of them, and the later events still run in order
// afterwards.
func TestTimeoutFiresBeforeLaterEvents(t *testing.T) {
	got := onBothSchedulers(t, 1, func(e *Engine, note func(string, ...interface{})) {
		e.Schedule(Second, func() { note("far") })
		e.Schedule(70000, func() { note("near") })
		e.Spawn("w", func(p *Proc) {
			_, ok := e.NewSignal().WaitTimeout(p, 66000)
			note("w woke %v", ok)
			p.Wait(10)
			note("w waited")
		})
		e.Run()
	})
	wantTranscript(t, got, []string{"66000 w woke false", "66010 w waited", "70000 near", "1000000000 far"})
}

// TestTimeoutRemovedOnWake arms five timeouts and ends the waits of the
// heap's head, a middle entry and its tail by triggering their signals; the
// two left fire on time, and nothing is dispatched for the three removed.
func TestTimeoutRemovedOnWake(t *testing.T) {
	for _, wake := range [][]int{{0}, {2}, {4}, {0, 2, 4}, {4, 2, 0}, {1, 3}, {0, 1, 2, 3, 4}} {
		got := onBothSchedulers(t, 1, func(e *Engine, note func(string, ...interface{})) {
			sigs := make([]*Signal, 5)
			for i := range sigs {
				sigs[i] = e.NewSignal()
				e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
					_, ok := sigs[i].WaitTimeout(p, Time(1000*(i+1)))
					note("%s %v", p.Name(), ok)
				})
			}
			e.RunUntil(10)
			if len(e.tmo) != 5 || e.tmo[0].name != "w0" || e.Pending() != 5 {
				t.Fatalf("armed %d, head %s, Pending %d; want 5, w0, 5", len(e.tmo), e.tmo[0].name, e.Pending())
			}
			for _, i := range wake {
				sigs[i].Trigger(nil)
			}
			before := e.EventsExecuted()
			e.RunUntil(10)
			checkTimeoutHeap(t, e)
			if n := len(e.tmo); n != 5-len(wake) {
				t.Fatalf("%d armed after waking %v, want %d", n, wake, 5-len(wake))
			}
			e.Run()
			// One wake-up per triggered wait; an expiry and its wake-up per other.
			if n, want := e.EventsExecuted()-before, uint64(len(wake)+2*(5-len(wake))); n != want {
				t.Errorf("waking %v: %d events, want %d", wake, n, want)
			}
		})
		want := []string{}
		for _, i := range wake {
			want = append(want, fmt.Sprintf("0 w%d true", i))
		}
		for i := 0; i < 5; i++ {
			if !slices.Contains(wake, i) {
				want = append(want, fmt.Sprintf("%d w%d false", 1000*(i+1), i))
			}
		}
		wantTranscript(t, got, want)
	}
}

// TestKillWhileTimeoutArmed kills a process parked in a timed wait: the
// kill's wake-up takes the timeout with it, nothing runs at the deadline,
// and the clock never reaches it.
func TestKillWhileTimeoutArmed(t *testing.T) {
	got := onBothSchedulers(t, 1, func(e *Engine, note func(string, ...interface{})) {
		victim := e.Spawn("victim", func(p *Proc) {
			defer note("victim unwinds")
			e.NewChan("never").RecvTimeout(p, Second)
			note("victim returned")
		})
		e.Spawn("bystander", func(p *Proc) {
			_, ok := e.NewSignal().WaitTimeout(p, 2*Second)
			note("bystander %v", ok)
		})
		e.Schedule(500, victim.Kill)
		e.RunUntil(Second + 1)
		if len(e.tmo) != 1 || e.tmo[0].name != "bystander" {
			t.Errorf("armed after the kill: %d, want the bystander's alone", len(e.tmo))
		}
		if e.Now() != 500 {
			t.Errorf("clock at %d: something was dispatched at the dead timeout's deadline", e.Now())
		}
		e.Run()
	})
	wantTranscript(t, got, []string{"500 victim unwinds", "2000000000 bystander false"})
}

// TestDeadlineAroundArmedTimeout ends runs just before, exactly at and just
// after an armed timeout, and shuts down with it armed.
func TestDeadlineAroundArmedTimeout(t *testing.T) {
	got := onBothSchedulers(t, 1, func(e *Engine, note func(string, ...interface{})) {
		e.Spawn("w", func(p *Proc) {
			for i := 0; i < 3; i++ {
				_, ok := e.NewSignal().WaitTimeout(p, 1000)
				note("w %v", ok)
			}
		})
		e.Schedule(5000, func() { note("later") })
		if now := e.RunUntil(999); now != 0 || len(e.tmo) != 1 {
			t.Errorf("deadline before the timeout: clock %d, %d armed; want 0, 1", now, len(e.tmo))
		}
		note("ran to 999")
		e.RunUntil(1000) // exactly at: fires, w re-arms for 2000
		note("ran to 1000")
		e.RunUntil(2001) // just after
		note("ran to 2001")
		if len(e.tmo) != 1 || e.tmo[0].tmoAt != 3000 || e.Pending() != 2 {
			t.Errorf("third wait: %d armed, Pending %d; want 1 due at 3000, 2", len(e.tmo), e.Pending())
		}
		// Shutdown at 2000 with the 3000 timeout armed: w unwinds, the
		// timeout is gone, the 5000 event stays queued.
		e.Shutdown()
		if len(e.tmo) != 0 || e.Pending() != 1 || e.Now() != 2000 {
			t.Errorf("after Shutdown: %d armed, Pending %d, clock %d; want 0, 1, 2000", len(e.tmo), e.Pending(), e.Now())
		}
	})
	wantTranscript(t, got, []string{"0 ran to 999", "1000 w false", "1000 ran to 1000", "2000 w false", "2000 ran to 2001"})
}

// TestShutdownAtArmedTimeoutInstant shuts down at the very nanosecond a
// timeout is due, before it has been dispatched: the timeout was armed
// before the kill was queued, so it expires first, and its wake-up, queued
// behind the kill's, arrives stale.
func TestShutdownAtArmedTimeoutInstant(t *testing.T) {
	got := onBothSchedulers(t, 1, func(e *Engine, note func(string, ...interface{})) {
		e.Spawn("w", func(p *Proc) {
			defer note("w unwinds")
			_, ok := e.NewSignal().WaitTimeout(p, 1000)
			note("w %v", ok)
		})
		e.Schedule(1000, e.Stop) // earlier seq than the timeout: the run stops at 1000 with it due
		e.Run()
		if e.Now() != 1000 || len(e.tmo) != 1 {
			t.Fatalf("stopped at %d with %d armed, want 1000 and 1", e.Now(), len(e.tmo))
		}
		before := e.EventsExecuted()
		e.Shutdown()
		if n := e.EventsExecuted() - before; n != 3 {
			t.Errorf("Shutdown dispatched %d events, want 3: the expiry, the kill, the stale wake-up", n)
		}
	})
	wantTranscript(t, got, []string{"1000 w unwinds"})
}

// TestTimeoutRearmStorm is the differential test for the mechanism as a
// whole: processes that wait with a timeout again and again — a few
// distinct durations, so expiries, triggers and re-arms collide on the same
// nanosecond all the time — while events trigger their signals early, late
// or at the deadline, and killers take some out mid-wait. The heap is
// checked after every event and the transcripts must match on both
// schedulers.
func TestTimeoutRearmStorm(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		got := onBothSchedulers(t, seed, func(e *Engine, note func(string, ...interface{})) {
			rng := e.DeriveRand("timeout-storm")
			delay := func() Time { return []Time{0, 1, 100, 100, 300, 1000, 70000}[rng.Intn(7)] }
			var procs []*Proc
			for w := 0; w < 12; w++ {
				procs = append(procs, e.Spawn(fmt.Sprintf("w%d", w), func(p *Proc) {
					inbox := e.NewChan(p.Name())
					for k := 0; k < 40; k++ {
						var v interface{}
						var ok bool
						if rng.Intn(2) == 0 {
							sig := e.NewSignal()
							e.After(delay(), func() { sig.Trigger(k) })
							v, ok = sig.WaitTimeout(p, delay())
						} else {
							e.After(delay(), func() { inbox.TrySend(k) })
							v, ok = inbox.RecvTimeout(p, delay())
						}
						note("%s %v %v", p.Name(), v, ok)
						if rng.Intn(4) == 0 {
							p.Wait(delay())
						}
					}
				}))
			}
			e.Spawn("killer", func(p *Proc) {
				for k := 0; k < 4; k++ {
					p.Wait(20 * delay())
					procs[rng.Intn(len(procs))].Kill()
				}
			})
			for e.Step() {
				checkTimeoutHeap(t, e)
			}
			note("end %d %d", e.EventsExecuted(), e.LiveProcs())
		})
		if len(got) < 300 {
			t.Fatalf("seed %d: storm ran dry after %d lines", seed, len(got))
		}
	}
}
