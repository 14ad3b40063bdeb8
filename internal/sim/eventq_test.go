package sim

import (
	"reflect"
	"slices"
	"sort"
	"testing"
)

// stormResult is the observed execution sequence of one storm plus the
// engine's final counters.
type stormResult struct {
	order  []stormStep
	events uint64
	now    Time
	live   int
}

type stormStep struct {
	at  Time
	tag int
}

// stormProgram drives one engine through a seeded pseudo-random event
// storm. It uses only engine-derived randomness so both schedulers see an
// identical program, and records (at, tag) for every executed action —
// tag is the issue order, so matching sequences mean the schedulers agree
// on the exact (at, seq) total order, not just on timestamps.
func stormProgram(t *testing.T, seed int64, ref bool) stormResult {
	t.Helper()
	e := NewEngine(seed)
	if ref {
		e.useReferenceHeap()
	}
	rng := e.DeriveRand("storm")
	res := stormResult{}
	tag := 0
	record := func(at Time, tg int) {
		res.order = append(res.order, stormStep{at: at, tag: tg})
	}

	// delays mixes the workload's real scales: sub-µs fabric hops (Intn(256)
	// draws zero-delay lane traffic too), µs software latencies, ms disk
	// seeks, and far-future timers that sit deep in the heap.
	randDelay := func() Time {
		switch rng.Intn(6) {
		case 0:
			return Time(rng.Intn(256)) // same-tick bursts
		case 1:
			return Time(rng.Intn(65536))
		case 2:
			return Time(rng.Int63n(int64(20 * Microsecond)))
		case 3:
			return Time(rng.Int63n(int64(5 * Millisecond)))
		case 4:
			return Time(rng.Int63n(int64(3 * Second)))
		default:
			// Days out.
			return 4200*Minute + Time(rng.Int63n(int64(12000*Minute)))
		}
	}

	// A self-extending storm: each fired event may schedule more events,
	// exercising insertion at a moving current instant.
	var fire func(depth int) func()
	fire = func(depth int) func() {
		tg := tag
		tag++
		return func() {
			record(e.Now(), tg)
			if depth > 0 {
				n := rng.Intn(3)
				for i := 0; i < n; i++ {
					e.After(randDelay(), fire(depth-1))
				}
			}
		}
	}
	for i := 0; i < 400; i++ {
		e.After(randDelay(), fire(2))
	}
	// Same-tick bursts: many events at one instant, queued in the heap long
	// before it becomes current, to stress the seq tie-break.
	for i := 0; i < 5; i++ {
		at := Time(rng.Int63n(int64(2 * Second)))
		for j := 0; j < 30; j++ {
			e.Schedule(at, fire(0))
		}
	}
	// Procs with waits, including some killed mid-storm.
	var victims []*Proc
	for i := 0; i < 20; i++ {
		tg := tag
		tag++
		p := e.Spawn("storm-proc", func(p *Proc) {
			for k := 0; k < 10; k++ {
				p.Wait(randDelay())
				record(p.Now(), tg)
			}
		})
		if i%4 == 0 {
			victims = append(victims, p)
		}
	}

	// Run in deadline windows with mid-storm interruptions: a Shutdown-like
	// kill wave partway through, plus inserts from outside the run that land
	// before everything still pending.
	e.RunUntil(300 * Millisecond)
	for _, p := range victims {
		p.Kill()
	}
	e.After(Time(rng.Intn(1000)), fire(1))
	e.RunUntil(2 * Second)
	e.After(Time(rng.Intn(1000)), fire(1))
	e.Run()

	// Shutdown semantics must agree too (kills every live proc and drains
	// only same-instant wake-ups).
	e.Shutdown()
	res.events = e.EventsExecuted()
	res.now = e.Now()
	res.live = e.LiveProcs()
	return res
}

// TestQueueMatchesReferenceHeap is the differential test of the production
// scheduler: seeded random event storms must produce identical execution
// sequences and identical EventsExecuted on the event queue and on the
// retained reference heap.
func TestQueueMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		queueRes := stormProgram(t, seed, false)
		heapRes := stormProgram(t, seed, true)
		if queueRes.events != heapRes.events {
			t.Errorf("seed %d: EventsExecuted queue=%d heap=%d", seed, queueRes.events, heapRes.events)
		}
		if queueRes.now != heapRes.now || queueRes.live != heapRes.live {
			t.Errorf("seed %d: final state queue={now %v live %d} heap={now %v live %d}",
				seed, queueRes.now, queueRes.live, heapRes.now, heapRes.live)
		}
		if !reflect.DeepEqual(queueRes.order, heapRes.order) {
			n := len(queueRes.order)
			if len(heapRes.order) < n {
				n = len(heapRes.order)
			}
			for i := 0; i < n; i++ {
				if queueRes.order[i] != heapRes.order[i] {
					t.Errorf("seed %d: execution diverges at step %d: queue=%+v heap=%+v",
						seed, i, queueRes.order[i], heapRes.order[i])
					break
				}
			}
			t.Fatalf("seed %d: sequences differ (queue %d steps, heap %d steps)",
				seed, len(queueRes.order), len(heapRes.order))
		}
	}
}

// TestQueueRawOrderProperty drives the bare queue (no engine) against a
// sorted-slice oracle with seeded random sequences of inserts and bounded
// pops: runs of equal timestamps, inserts at the current instant while the
// heap holds earlier-numbered entries for it, inserts behind it, the far
// end of the Time range, and bounds that fall between two keys.
func TestQueueRawOrderProperty(t *testing.T) {
	type key struct {
		at  Time
		seq uint64
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := NewEngine(seed).DeriveRand("raw")
		var q eventQueue
		var oracle []key // sorted by (at, seq)
		var seq uint64
		var clock Time

		insert := func(at Time) {
			seq++
			q.insert(event{at: at, seq: seq, id: seq})
			k := key{at, seq}
			i := sort.Search(len(oracle), func(i int) bool { return !before(oracle[i].at, oracle[i].seq, k.at, k.seq) })
			oracle = slices.Insert(oracle, i, k)
		}
		// pop takes the head if it sorts at or before the bound, as advance
		// does with the deadline or the earliest armed timeout.
		pop := func(bat Time, bseq uint64) bool {
			var ev event
			ok := q.popBefore(bat, bseq, &ev)
			want := len(oracle) > 0 && before(oracle[0].at, oracle[0].seq, bat, bseq)
			if ok != want {
				t.Fatalf("seed %d: popBefore(%d, %d) = %v with the oracle's head at %v", seed, bat, bseq, ok, oracle[:min(1, len(oracle))])
			}
			if !ok {
				if !reflect.ValueOf(ev).IsZero() {
					t.Fatalf("seed %d: a refused pop wrote %+v", seed, ev)
				}
				return false
			}
			if k := oracle[0]; ev.at != k.at || ev.seq != k.seq || ev.id != k.seq {
				t.Fatalf("seed %d: popped (%d, %d) payload %d, oracle has (%d, %d)", seed, ev.at, ev.seq, ev.id, k.at, k.seq)
			}
			oracle = oracle[1:]
			clock = max(clock, ev.at)
			return true
		}

		deltas := []Time{0, 0, 0, 1, 255, 256, 0xFFFF, 0x10000, 60 * Microsecond, 2 * Second, 5000 * Minute}
		for round := 0; round < 300; round++ {
			for i := rng.Intn(8); i > 0; i-- {
				switch rng.Intn(8) {
				case 1:
					insert(q.cur) // the lane, wherever the clock is
				case 2:
					insert(Time(rng.Int63n(int64(clock) + 1))) // behind the clock, maybe behind cur
				default:
					insert(clock + deltas[rng.Intn(len(deltas))])
				}
			}
			for i := rng.Intn(7); i > 0 && len(oracle) > 0; i-- {
				switch rng.Intn(4) {
				case 0: // a bound just short of the head: nothing may move
					pop(oracle[0].at, oracle[0].seq-1)
				case 1: // a deadline: the head's whole instant
					pop(oracle[0].at, ^uint64(0))
				default:
					pop(maxTime, ^uint64(0))
				}
			}
			if q.len() != len(oracle) {
				t.Fatalf("seed %d: queue holds %d, oracle %d", seed, q.len(), len(oracle))
			}
			for i := q.head; i < len(q.lane); i++ {
				if q.lane[i].at != q.cur || i > q.head && q.lane[i].seq < q.lane[i-1].seq {
					t.Fatalf("seed %d: lane[%d] = (%d, %d) with cur %d", seed, i, q.lane[i].at, q.lane[i].seq, q.cur)
				}
			}
		}
		// The far end of the Time range, last: the clock has nowhere to go
		// from there.
		for _, back := range []Time{1, 0, 1, 0} {
			insert(maxTime - back)
		}
		for pop(maxTime, ^uint64(0)) {
		}
		if clock != maxTime {
			t.Fatalf("seed %d: drained at %d, want the end of the range", seed, clock)
		}
		if q.len() != 0 || len(q.free) != len(q.pool) {
			t.Fatalf("seed %d: after the drain %d pending, %d of %d pool slots free", seed, q.len(), len(q.free), len(q.pool))
		}
		for i := range q.pool {
			if !reflect.ValueOf(q.pool[i]).IsZero() {
				t.Fatalf("seed %d: vacated pool slot %d still holds %+v", seed, i, q.pool[i])
			}
		}
		for _, ev := range q.lane[:cap(q.lane)] {
			if !reflect.ValueOf(ev).IsZero() {
				t.Fatalf("seed %d: a consumed lane slot still holds %+v", seed, ev)
			}
		}
	}
}

// TestInsertBeforePendingEvents pins inserts from between runs: a
// deadline-limited run stops short of the next event, and what is then
// scheduled earlier than it must still execute first, in (at, seq) order.
func TestInsertBeforePendingEvents(t *testing.T) {
	got := onBothSchedulers(t, 1, func(e *Engine, note func(string, ...interface{})) {
		e.Schedule(1000, func() { note("a") })
		e.Schedule(5*Second, func() { note("far") })
		e.RunUntil(2000)
		e.Schedule(3000, func() { note("c") })
		e.Schedule(2500, func() { note("b") })
		e.Schedule(0, func() { note("clamped to now") })
		e.Run()
	})
	wantTranscript(t, got, []string{"1000 a", "1000 clamped to now", "2500 b", "3000 c", "5000000000 far"})
}

// TestHeapEntriesOfAnInstantRunBeforeItsLane: events queued for instant T
// long before it is current sit in the heap with low sequence numbers; what
// the first of them schedules for T goes to the lane, and must wait for all
// of them.
func TestHeapEntriesOfAnInstantRunBeforeItsLane(t *testing.T) {
	got := onBothSchedulers(t, 1, func(e *Engine, note func(string, ...interface{})) {
		for i := 0; i < 3; i++ {
			e.Schedule(100, func() {
				note("early %d", i)
				e.After(0, func() { note("lane %d", i) })
			})
		}
		e.Schedule(50, func() {
			note("at 50")
			e.Schedule(100, func() { note("late") }) // the heap again, behind the three
		})
		e.Run()
	})
	wantTranscript(t, got, []string{"50 at 50", "100 early 0", "100 early 1", "100 early 2", "100 late",
		"100 lane 0", "100 lane 1", "100 lane 2"})
}

// TestZeroDelayChains: events that schedule After(0) from inside a
// same-instant burst queue behind the rest of the burst, generation by
// generation, and the instant ends before anything later runs.
func TestZeroDelayChains(t *testing.T) {
	got := onBothSchedulers(t, 1, func(e *Engine, note func(string, ...interface{})) {
		var hop func(name string, left int) func()
		hop = func(name string, left int) func() {
			return func() {
				note("%s%d", name, left)
				if left > 0 {
					e.After(0, hop(name, left-1))
				}
			}
		}
		e.Schedule(10, hop("a", 2))
		e.Schedule(10, hop("b", 1))
		e.Schedule(11, func() { note("next instant") })
		e.Spawn("p", func(p *Proc) {
			p.Wait(10)
			note("p")
			p.Wait(0) // yields behind what is queued for the instant
			note("p again")
		})
		e.Run()
		if e.EventsExecuted() != 9 || e.Pending() != 0 {
			t.Errorf("%d events, %d pending; want 9, 0", e.EventsExecuted(), e.Pending())
		}
	})
	wantTranscript(t, got, []string{"10 a2", "10 b1", "10 p", "10 a1", "10 b0", "10 p again", "10 a0", "11 next instant"})
}

// TestScheduleBetweenRunsWithLanePending leaves the lane non-empty three ways
// — a deadline, a Step budget, a Stop — and schedules for the current instant
// from outside the run each time: the newcomer queues behind what was left.
func TestScheduleBetweenRunsWithLanePending(t *testing.T) {
	got := onBothSchedulers(t, 1, func(e *Engine, note func(string, ...interface{})) {
		burst := func(tag string, n int) func() {
			return func() {
				note("%s burst", tag)
				for i := 0; i < n; i++ {
					e.After(0, func() { note("%s %d", tag, i) })
				}
			}
		}
		// Step: the burst event runs, its two zero-delay children stay queued.
		e.Schedule(10, burst("step", 2))
		e.Step()
		if e.Now() != 10 || e.Pending() != 2 {
			t.Fatalf("after Step: clock %d, %d pending; want 10, 2", e.Now(), e.Pending())
		}
		e.Schedule(e.Now(), func() { note("outside after Step") })
		e.Step()
		e.Schedule(5, func() { note("clamped, behind all of them") })
		e.RunUntil(10)

		// Stop from inside a burst.
		e.Schedule(20, func() {
			burst("stop", 2)()
			e.Stop()
		})
		e.Run()
		e.After(0, func() { note("outside after Stop") })
		e.After(1, func() { note("21") })
		// A deadline in the past dispatches nothing.
		if e.RunUntil(19); e.Pending() != 4 {
			t.Fatalf("RunUntil(19) at 20: %d pending, want 4", e.Pending())
		}
		e.RunUntil(20)
		note("ran to 20")
		e.Run()
	})
	wantTranscript(t, got, []string{"10 step burst", "10 step 0", "10 step 1", "10 outside after Step", "10 clamped, behind all of them",
		"20 stop burst", "20 stop 0", "20 stop 1", "20 outside after Stop", "20 ran to 20", "21 21"})
}

// TestTimeoutFiresAheadOfTheCurrentInstant: the clock reaches 66000 by an
// armed timeout, not by an event, so the queue's current instant is still
// behind it. The woken process's zero-delay work, the events already queued
// for 66000 and those queued for it afterwards must still come out in
// sequence order.
func TestTimeoutFiresAheadOfTheCurrentInstant(t *testing.T) {
	got := onBothSchedulers(t, 1, func(e *Engine, note func(string, ...interface{})) {
		c := e.NewChan("c")
		e.Spawn("w", func(p *Proc) {
			_, ok := c.RecvTimeout(p, 66000)
			note("w woke %v", ok)
			e.After(0, func() { note("w's zero-delay") })
			p.Wait(0)
			note("w yielded")
			e.After(0, func() { note("w's second zero-delay") })
		})
		e.Spawn("peer", func(p *Proc) {
			p.Wait(66000) // queued behind w's timeout: dispatched after the expiry, before w's wake-up
			note("peer")
			e.After(0, func() { note("peer's zero-delay") })
		})
		e.Schedule(Second, func() { note("far") })
		e.Run()
	})
	wantTranscript(t, got, []string{"66000 peer", "66000 w woke false", "66000 peer's zero-delay", "66000 w's zero-delay",
		"66000 w yielded", "66000 w's second zero-delay", "1000000000 far"})
}

// TestShutdownWithBothTiersPending: Shutdown runs the current instant only —
// the kills' wake-ups and whatever the lane held — and leaves later events
// queued.
func TestShutdownWithBothTiersPending(t *testing.T) {
	got := onBothSchedulers(t, 1, func(e *Engine, note func(string, ...interface{})) {
		for _, name := range []string{"a", "b"} {
			e.Spawn(name, func(p *Proc) {
				defer note("%s unwinds", name)
				p.Wait(Minute)
			})
		}
		e.Schedule(10, func() {
			e.After(0, func() { note("lane") })
			e.After(0, func() { note("lane too") })
			e.Stop()
		})
		e.Schedule(60*Minute, func() { note("never") })
		e.Run()
		if e.ref == nil && (len(e.q.lane)-e.q.head != 2 || len(e.q.heap) != 3) {
			t.Fatalf("stopped with %d in the lane and %d in the heap, want 2 and 3", len(e.q.lane)-e.q.head, len(e.q.heap))
		}
		e.Shutdown()
		note("shut down")
		// The two Wait wake-ups and the far event; all processes gone.
		if e.Pending() != 3 || e.LiveProcs() != 0 || e.Now() != 10 {
			t.Errorf("after Shutdown: %d pending, %d live, clock %d; want 3, 0, 10", e.Pending(), e.LiveProcs(), e.Now())
		}
	})
	wantTranscript(t, got, []string{"10 lane", "10 lane too", "10 a unwinds", "10 b unwinds", "10 shut down"})
}
