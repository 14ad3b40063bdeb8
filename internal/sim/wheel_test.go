package sim

import (
	"math"
	"reflect"
	"testing"
)

// recordEngine runs program on a fresh engine (reference heap when ref is
// set) and returns the observed execution sequence plus the final counters.
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

	// delays mixes the workload's real scales: sub-µs fabric hops, µs
	// software latencies, ms disk seeks, and far-future timers that land in
	// the outer wheels or the overflow heap.
	randDelay := func() Time {
		switch rng.Intn(6) {
		case 0:
			return Time(rng.Intn(256)) // inner wheel, same-tick bursts
		case 1:
			return Time(rng.Intn(65536)) // level 1
		case 2:
			return Time(rng.Int63n(int64(20 * Microsecond)))
		case 3:
			return Time(rng.Int63n(int64(5 * Millisecond)))
		case 4:
			return Time(rng.Int63n(int64(3 * Second)))
		default:
			// Far beyond spanTop (~78 h): lands in the overflow heap.
			return 4200*Minute + Time(rng.Int63n(int64(12000*Minute)))
		}
	}

	// A self-extending storm: each fired event may schedule more events,
	// exercising insertion at a moving cursor.
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
	// Same-tick bursts: many events at one instant to stress the seq
	// tie-break in the ready bucket.
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
	// kill wave partway through, plus inserts behind the wheel cursor
	// (RunUntil leaves the cursor past the deadline, so the next After
	// exercises the rewind path).
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

// TestWheelMatchesReferenceHeap is the differential test required for the
// scheduler swap: seeded random event storms must produce identical
// execution sequences and identical EventsExecuted on the timing wheel and
// on the retained reference heap.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		wheelRes := stormProgram(t, seed, false)
		heapRes := stormProgram(t, seed, true)
		if wheelRes.events != heapRes.events {
			t.Errorf("seed %d: EventsExecuted wheel=%d heap=%d", seed, wheelRes.events, heapRes.events)
		}
		if wheelRes.now != heapRes.now || wheelRes.live != heapRes.live {
			t.Errorf("seed %d: final state wheel={now %v live %d} heap={now %v live %d}",
				seed, wheelRes.now, wheelRes.live, heapRes.now, heapRes.live)
		}
		if !reflect.DeepEqual(wheelRes.order, heapRes.order) {
			n := len(wheelRes.order)
			if len(heapRes.order) < n {
				n = len(heapRes.order)
			}
			for i := 0; i < n; i++ {
				if wheelRes.order[i] != heapRes.order[i] {
					t.Errorf("seed %d: execution diverges at step %d: wheel=%+v heap=%+v",
						seed, i, wheelRes.order[i], heapRes.order[i])
					break
				}
			}
			t.Fatalf("seed %d: sequences differ (wheel %d steps, heap %d steps)",
				seed, len(wheelRes.order), len(heapRes.order))
		}
	}
}

// TestWheelRawOrderProperty drives the bare data structures (no engine)
// with adversarial patterns — interleaved inserts and pops, duplicate
// timestamps, rotation-aliasing deltas like 0xFFFF, horizon values — and
// checks the wheel emits the exact (at, seq) order the heap does.
func TestWheelRawOrderProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		e := NewEngine(seed) // only for DeriveRand determinism
		rng := e.DeriveRand("raw")
		var w wheel
		var h refHeap
		var seq uint64
		var clock Time

		insert := func(at Time) {
			if at < clock {
				at = clock
			}
			seq++
			ev := event{at: at, seq: seq}
			w.insert(ev)
			h.push(ev)
		}
		popBoth := func() bool {
			wt, ws, wok := w.nextTime(maxTime)
			ht, hs, hok := h.peek()
			if wok != hok {
				t.Fatalf("seed %d: pending disagreement wheel=%v heap=%v", seed, wok, hok)
			}
			if !wok {
				return false
			}
			if wt != ht || ws != hs {
				t.Fatalf("seed %d: next key wheel=(%d,%d) heap=(%d,%d)", seed, wt, ws, ht, hs)
			}
			we, he := w.popReady(), h.pop()
			if we.at != he.at || we.seq != he.seq {
				t.Fatalf("seed %d: pop wheel=(%d,%d) heap=(%d,%d)", seed, we.at, we.seq, he.at, he.seq)
			}
			if we.at > clock {
				clock = we.at
			}
			return true
		}

		deltas := []Time{0, 1, 255, 256, 0xFFFF, 0x10000, 0xFFFFFF,
			Time(1)<<24 + 77, spanTop - 1, spanTop, spanTop + 12345,
			math.MaxInt64 - 1}
		for round := 0; round < 200; round++ {
			n := rng.Intn(8)
			for i := 0; i < n; i++ {
				var d Time
				if rng.Intn(3) == 0 {
					d = deltas[rng.Intn(len(deltas))]
				} else {
					d = Time(rng.Int63n(int64(10 * Second)))
				}
				at := clock + d
				if at < clock { // overflow past the horizon
					at = maxTime
				}
				insert(at)
			}
			// The engine's use of the horizon: an armed timeout due before
			// the next event stops the cursor short, the clock moves to the
			// timeout and its wake-up is inserted there — never behind the
			// cursor, and first out.
			if ht, _, hok := h.peek(); hok && rng.Intn(3) == 0 {
				// A timeout is armed by a process running at the cursor, so
				// the horizon is never behind it.
				lo := max(clock, w.cur)
				hz := lo + Time(rng.Int63n(int64(min(ht-lo, 10*Second))+1))
				if _, _, wok := w.nextTime(hz); wok != (ht <= hz) {
					t.Fatalf("seed %d: nextTime(%d) ok=%v with the next event at %d", seed, hz, wok, ht)
				} else if !wok {
					if w.cur > hz {
						t.Fatalf("seed %d: cursor %d ran past horizon %d", seed, w.cur, hz)
					}
					clock = hz
					insert(hz)
					if at, _, _ := w.nextTime(maxTime); at != hz {
						t.Fatalf("seed %d: event inserted at horizon %d, wheel surfaces %d first", seed, hz, at)
					}
				}
			}
			for i := rng.Intn(6); i > 0; i-- {
				if !popBoth() {
					break
				}
			}
			if w.count != h.len() {
				t.Fatalf("seed %d: count wheel=%d heap=%d", seed, w.count, h.len())
			}
		}
		for popBoth() {
		}
		if w.count != 0 {
			t.Fatalf("seed %d: wheel reports %d pending after drain", seed, w.count)
		}
	}
}

// TestWheelRewind pins the insert-behind-cursor path: a deadline-limited
// run advances the wheel cursor past the deadline; a later insert below
// the cursor must still execute first, in (at, seq) order.
func TestWheelRewind(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	e.Schedule(1000, func() { got = append(got, e.Now()) })
	e.Schedule(5*Second, func() { got = append(got, e.Now()) })
	e.RunUntil(2000) // cursor advances hunting for the 5 s event
	e.Schedule(3000, func() { got = append(got, e.Now()) })
	e.Schedule(2500, func() { got = append(got, e.Now()) })
	e.Run()
	want := []Time{1000, 2500, 3000, 5 * Second}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("execution order %v, want %v", got, want)
	}
}
