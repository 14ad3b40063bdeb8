package main

import (
	"container/heap"
	"time"
)

// The yardstick is a fixed piece of work with a simulator's habits and
// none of this program's code: a timer heap drained by one loop, every
// event handed to one of a few goroutines and handed back (two goroutine
// switches, like a coroutine resume and yield), each handler allocating
// a 1 KB record, filing it in a map, retiring an old one and reading
// another somewhere in a 32 MB working set.
//
// It exists because the hosts this benchmark runs on are shared virtual
// machines. Measured on the 2-vCPU sandbox this benchmark was sized on:
// one hotstock-pm rep took 1.5 s, 2.4 s and 1.9 s in three stretches of
// one hour, each stretch lasting minutes, while a tight loop in L1 did
// not move at all — so no amount of repetition inside a 20 s run
// steadies a wall time (ten runs' medians spread 8-30 %). The yardstick
// slows and speeds with the simulator (its ratio to a rep held within
// 2-6 % across those stretches, and across GOMAXPROCS 1 and 2), so it is
// run beside every rep and every batch of set-ups, and host times are
// reported in yardstick seconds.

const (
	yardWorkers = 16
	yardLive    = 1 << 15 // records kept live, about 1 KB each
	yardEvents  = 120_000 // events of a full-size run
	// yardNominalS is the yardstick's duration on the reference host.
	// Any constant would do; this one is about what the sizing sandbox
	// takes, so that yardstick seconds read like seconds there.
	yardNominalS = 0.2
)

// yardSeconds converts a host time measured while the yardstick took
// yardS into yardstick seconds: what it would read on a host where the
// yardstick takes exactly yardNominalS.
func yardSeconds(seconds, yardS float64) float64 {
	if yardS <= 0 {
		return seconds
	}
	return seconds * yardNominalS / yardS
}

type yardRec struct {
	body [1000]byte
}

type yardMsg struct {
	key   uint64
	reply chan uint64
}

type yardTimers []uint64

func (h yardTimers) Len() int           { return len(h) }
func (h yardTimers) Less(i, j int) bool { return h[i] < h[j] }
func (h yardTimers) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *yardTimers) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *yardTimers) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// yardstick dispatches events events of the reference work and returns
// how long a full-size run of yardEvents would have taken at that pace
// (a smoke run dispatches fewer).
func yardstick(events int) time.Duration {
	inbox := make([]chan yardMsg, yardWorkers)
	for w := range inbox {
		inbox[w] = make(chan yardMsg)
		go func(in chan yardMsg) {
			live := make(map[uint64]*yardRec, yardLive/yardWorkers)
			for m := range in {
				r := &yardRec{}
				r.body[m.key%1000] = byte(m.key)
				live[m.key] = r
				delete(live, m.key-yardLive)
				// Read one of this worker's older records, picked by hash.
				var seen uint64
				if old := live[m.key-yardWorkers*(m.key*2654435761>>8%(yardLive/yardWorkers))]; old != nil {
					seen = uint64(old.body[0])
				}
				m.reply <- m.key*0x9E3779B97F4A7C15 + seen
			}
		}(inbox[w])
	}

	timers := make(yardTimers, 0, 4096)
	rng := uint64(0x2545F4914F6CDD1D)
	for i := 0; i < 4096; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		timers = append(timers, rng>>20)
	}
	heap.Init(&timers)
	reply := make(chan uint64)

	t0 := time.Now()
	for ev := uint64(yardLive); ev < yardLive+uint64(events); ev++ {
		at := heap.Pop(&timers).(uint64)
		inbox[ev%yardWorkers] <- yardMsg{key: ev, reply: reply}
		heap.Push(&timers, at+(<-reply)>>44)
	}
	d := time.Since(t0)
	for _, in := range inbox {
		close(in)
	}
	return d * yardEvents / time.Duration(events)
}
