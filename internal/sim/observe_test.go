package sim

import (
	"fmt"
	"strings"
	"testing"
)

// twoLegServer takes each value it is handed through two timed legs, then
// records it with what the wake-ups delivered.
type twoLegServer struct {
	legs int
	v    interface{}
	log  *[]string
}

func (s *twoLegServer) Handle(p *Proc, v interface{}) bool {
	s.v, s.legs = v, 2
	p.ArmWait(Microsecond)
	return false
}

func (s *twoLegServer) Step(p *Proc) bool {
	if _, ok := p.Delivered(); ok {
		panic("a timed wake-up delivered ok")
	}
	if s.legs--; s.legs > 0 {
		p.ArmWait(Microsecond)
		return false
	}
	*s.log = append(*s.log, fmt.Sprintf("%d served %v", int64(p.Now()), s.v))
	return true
}

// signalStep waits on a signal through Signal.ArmWait and records what the
// wake-up delivered: the trigger's value, or the timeout.
type signalStep struct {
	log *[]string
}

func (s signalStep) Step(p *Proc) bool {
	v, ok := p.Delivered()
	*s.log = append(*s.log, fmt.Sprintf("%d delivered %v %v", int64(p.Now()), v, ok))
	return true
}

// TestDispatchObserverSeesEveryEvent: the observer sees every dispatched
// event exactly once — starts (stamp all ones), wake-ups with their park
// stamps, callbacks with no process, and a timeout that fires under the key
// it fired at — so its count is EventsExecuted. The per-process switch
// counts add up to SwitchesExecuted; a stepped wake-up reads what it
// delivered through Delivered; a ServeLegs server walks a value's legs one
// wake-up at a time and only then takes the next value.
func TestDispatchObserverSeesEveryEvent(t *testing.T) {
	e := NewEngine(1)
	var seen []string
	procs := map[*Proc]bool{}
	e.SetDispatchObserver(func(at Time, seq uint64, p *Proc, stamp uint64) {
		who := "fn"
		if p != nil {
			who = p.Name()
			procs[p] = true
		}
		if stamp == startEventID {
			seen = append(seen, fmt.Sprintf("%d %d %s start", int64(at), seq, who))
			return
		}
		seen = append(seen, fmt.Sprintf("%d %d %s %d", int64(at), seq, who, stamp))
	})
	var log []string
	ch := e.NewChan("requests")
	e.Spawn("server", func(p *Proc) {
		ch.ServeLegs(p, &twoLegServer{log: &log})
	})
	e.Spawn("client", func(p *Proc) {
		ch.Send(p, "a")
		ch.Send(p, "b")
		p.Wait(5 * Microsecond)
	})
	for i, fire := range []Time{Microsecond, 3 * Microsecond} {
		i, fire := i, fire
		e.Spawn(fmt.Sprintf("waiter%d", i), func(p *Proc) {
			sig := e.NewSignal()
			e.After(fire, func() { sig.Trigger(i) })
			if _, ok := sig.ArmWait(p, 2*Microsecond); ok {
				t.Errorf("waiter%d: the signal fired before it was armed", i)
			}
			p.ParkScript(signalStep{log: &log})
		})
	}
	e.Run()

	want := []string{
		"1000 delivered 0 true", // the trigger beat the 2 µs timeout
		"2000 served a",
		"2000 delivered <nil> false", // the timeout beat the 3 µs trigger
		"4000 served b",
	}
	if got := strings.Join(log, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("what the steps saw:\n%s\nwant\n%s", got, strings.Join(want, "\n"))
	}
	if uint64(len(seen)) != e.EventsExecuted() {
		t.Errorf("observer saw %d events, the engine dispatched %d", len(seen), e.EventsExecuted())
	}
	var kinds = map[string]int{}
	for _, line := range seen {
		switch f := strings.Fields(line); {
		case f[3] == "start":
			kinds["start"]++
		case f[2] == "fn":
			kinds["fn"]++
		case f[2] == "waiter1" && f[0] == "2000":
			kinds["timeout"]++
		}
	}
	if kinds["start"] != 4 || kinds["fn"] != 2 || kinds["timeout"] == 0 {
		t.Errorf("observer saw %v: want 4 starts, 2 callbacks and waiter1's timeout at 2 µs\n%s", kinds, strings.Join(seen, "\n"))
	}
	var switches uint64
	for p := range procs { //simlint:ordered -- a sum
		switches += p.Switches()
	}
	if switches == 0 || switches != e.SwitchesExecuted() {
		t.Errorf("processes own %d switches, the engine made %d", switches, e.SwitchesExecuted())
	}
	e.Shutdown()
}

// A Serve handler takes no legs, so a wake-up stepping one is a kernel bug.
func TestServeHandlerStepPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("stepping a handler that arms no legs did not panic")
		}
	}()
	handleFunc(func(interface{}) {}).Step(nil)
}
