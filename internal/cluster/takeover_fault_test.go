package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"persistmem/internal/sim"
)

// takeoverFaultRun drives one scripted CPU failure against a serving
// pair and records everything schedule-visible: the order processes on
// the failed CPU died, when the service name reappeared and where, and
// how the client's in-flight call ended.
type takeoverFaultRun struct {
	kills        []string // processes on CPU 0, in death order
	inflightErr  error    // outcome of the Call racing the failure
	inflightTook sim.Time // how long that call blocked
	reregAt      sim.Time // when the name answered again
	reregCPU     int      // where it answered from
}

func runTakeoverFault(t *testing.T, seed int64) takeoverFaultRun {
	t.Helper()
	eng, cl := newTestCluster(seed)
	var r takeoverFaultRun

	// A pair that answers calls after a little service time, plus two
	// bystander workers on the primary CPU so the kill order has
	// something to order.
	pr := cl.StartPair("svc", 0, 1, func(ctx *PairCtx) {
		for {
			ev := ctx.Recv()
			ctx.Wait(2 * sim.Millisecond)
			ev.Reply("ok")
		}
	})
	for i := 0; i < 2; i++ {
		w := cl.CPU(0).Spawn(fmt.Sprintf("worker%d", i), func(p *Process) {
			p.Wait(sim.Minute)
		})
		w.proc.OnExit(func() { r.kills = append(r.kills, w.Name()) })
	}
	pr.primary.proc.OnExit(func() { r.kills = append(r.kills, "svc-primary") })

	var failAt sim.Time = 10 * sim.Millisecond
	eng.Schedule(failAt, func() { cl.CPU(0).Fail() })

	// Client A: a call in flight when the CPU dies (issued 1ms before,
	// service time 2ms). It must fail cleanly within the call timeout,
	// not hang forever.
	cl.CPU(2).Spawn("inflight-client", func(p *Process) {
		p.Wait(failAt - 1*sim.Millisecond)
		start := p.Now()
		_, r.inflightErr = p.Call("svc", 64, "req")
		r.inflightTook = p.Now() - start
	})
	// Client B: polls until the name answers again.
	cl.CPU(2).Spawn("probe-client", func(p *Process) {
		p.Wait(failAt)
		for {
			if _, err := p.Call("svc", 64, "probe"); err == nil {
				r.reregAt = p.Now()
				r.reregCPU = cl.LookupCPU("svc")
				return
			}
			p.Wait(sim.Millisecond)
		}
	})
	eng.RunUntil(5 * sim.Second)
	eng.Shutdown()
	return r
}

// A CPU failure under an injected fault must behave like §1.3 promises:
// the backup re-registers the name within TakeoverDelay, in-flight
// calls to the dead primary fail cleanly within the call timeout, and
// the whole kill-and-takeover sequence replays identically for the
// same seed.
func TestTakeoverUnderCPUFailure(t *testing.T) {
	r := runTakeoverFault(t, 42)

	if r.inflightErr == nil {
		t.Error("in-flight call to the dead primary succeeded, want a clean failure")
	}
	// The timeout clock starts after the request's fabric hop, so the
	// observed block is the call timeout plus that hop.
	if r.inflightTook > CallTimeout+sim.Millisecond {
		t.Errorf("in-flight call blocked %v, want about the call timeout %v", r.inflightTook, CallTimeout)
	}
	if r.reregAt == 0 {
		t.Fatal("service never answered again after the CPU failure")
	}
	failAt := 10 * sim.Millisecond
	// One poll interval plus the probe's own call service time pad the
	// bound; the registration itself must flip at exactly TakeoverDelay.
	slack := 10 * sim.Millisecond
	if r.reregAt > failAt+TakeoverDelay+slack {
		t.Errorf("backup answered at %v, want within %v of the failure at %v", r.reregAt, TakeoverDelay, failAt)
	}
	if r.reregCPU != 1 {
		t.Errorf("service re-registered on CPU %d, want backup CPU 1", r.reregCPU)
	}
	if len(r.kills) != 3 {
		t.Errorf("saw %d process deaths on CPU 0, want 3 (2 workers + primary): %v", len(r.kills), r.kills)
	}

	// Determinism: the same seed replays the same kill order and the
	// same timings, byte for byte.
	r2 := runTakeoverFault(t, 42)
	if !reflect.DeepEqual(r.kills, r2.kills) {
		t.Errorf("kill sequence diverged across same-seed runs: %v vs %v", r.kills, r2.kills)
	}
	if r.reregAt != r2.reregAt || r.inflightTook != r2.inflightTook {
		t.Errorf("timings diverged across same-seed runs: rereg %v/%v, inflight %v/%v",
			r.reregAt, r2.reregAt, r.inflightTook, r2.inflightTook)
	}
}

// sendFault places one fault inside a message send. The sender is a pair
// primary on CPU 0 (backup on CPU 1) sending to a sink on CPU 2, so its
// script takes cpu0-exec, then ports 0 and 2 in that order.
type sendFault struct {
	leg string
	// hog holds cpu0-exec from t=0 for 300 µs (spawned after the primary,
	// so a CPU failure unwinds the queued sender before the holder).
	hog bool
	// bulk is the CPU whose port a 1 MB transfer from CPU 3 occupies from
	// about 25 µs to 8.6 ms; -1 for none.
	bulk int
	sz   int
	// at is when the fault lands. Zero means the instant the frame reaches
	// the sink's CPU, between the sender's last leg handing it to
	// cpu2-msgsys and the dispatcher's wake-up for it.
	at sim.Time
}

var sendFaults = []sendFault{
	{leg: "queued on cpu0-exec", hog: true, bulk: -1, sz: 64, at: 100 * sim.Microsecond},
	{leg: "holding cpu0-exec", bulk: -1, sz: 64, at: 15 * sim.Microsecond},
	{leg: "queued on the first link", bulk: 0, sz: 64, at: 100 * sim.Microsecond},
	{leg: "holding the first link, queued on the second", bulk: 2, sz: 64, at: 100 * sim.Microsecond},
	{leg: "holding both links mid-transfer", bulk: -1, sz: 64 << 10, at: 300 * sim.Microsecond},
	{leg: "frame handed to msgsys in the same instant", bulk: -1, sz: 64},
}

type sendFaultRun struct {
	heard    []string // senders the sink heard from, in order
	firstErr error    // what the first incarnation's Send returned, if it returned
	returned bool
	takeover int // CPU the service ended on
	probeErr error
	probeRTT sim.Time
	blocked  []string
	live     int
	exec     [4]int // cpuN-exec units in use at the end
}

// runSendFault runs the rig with fault applied at f.at (nil: a dry run that
// only reports when the first message arrives), then, a second later,
// restores whatever CPU went down and checks that the node still works: a
// fresh sink if the old one died, a new server behind CPU 0's dispatcher
// called from CPU 3, and a new sender on CPU 0.
func runSendFault(t *testing.T, f sendFault, fault func(cl *Cluster, pr *Pair)) (r sendFaultRun, firstArrival sim.Time) {
	t.Helper()
	eng, cl := newTestCluster(7)
	startSink := func() {
		sink := cl.CPU(2).Spawn("sink", func(p *Process) {
			for {
				ev := p.Recv()
				if firstArrival == 0 {
					firstArrival = p.Now()
				}
				r.heard = append(r.heard, ev.From)
			}
		})
		cl.Register("sink", sink)
	}
	startSink()
	pr := cl.StartPair("svc", 0, 1, func(ctx *PairCtx) {
		if !ctx.Takeover {
			ctx.Wait(10 * sim.Microsecond)
		}
		err := ctx.Send("sink", f.sz, nil)
		if !ctx.Takeover {
			r.firstErr, r.returned = err, true
		}
		for {
			ctx.Recv()
		}
	})
	if f.hog {
		cl.CPU(0).Spawn("hog", func(p *Process) { p.Compute(300 * sim.Microsecond) })
	}
	if f.bulk >= 0 {
		name := fmt.Sprintf("bulk-sink%d", f.bulk)
		cl.Register(name, cl.CPU(f.bulk).Spawn(name, func(p *Process) {
			for {
				p.Recv()
			}
		}))
		cl.CPU(3).Spawn("bulk", func(p *Process) { p.Send(name, 1<<20, nil) })
	}
	if fault != nil {
		at := f.at
		land := func() { fault(cl, pr) }
		if at == 0 {
			// Queue the fault from inside the instant, behind the sender's
			// last wake-up and ahead of the dispatcher's.
			_, at = runSendFault(t, f, nil)
			land = func() { eng.Schedule(at, func() { fault(cl, pr) }) }
		}
		eng.Schedule(at, land)
	}
	eng.Schedule(sim.Second, func() {
		for i := 0; i < cl.NumCPUs(); i++ {
			if !cl.CPU(i).Up() {
				cl.CPU(i).Restore()
			}
		}
		if cl.LookupCPU("sink") < 0 {
			startSink()
		}
		cl.Register("echo0", cl.CPU(0).Spawn("echo0", func(p *Process) {
			for {
				ev := p.Recv()
				p.Compute(10 * sim.Microsecond)
				ev.Reply(ev.Payload)
			}
		}))
		cl.CPU(3).Spawn("prober", func(p *Process) {
			start := p.Now()
			_, r.probeErr = p.Call("echo0", 64, "ping")
			r.probeRTT = p.Now() - start
		})
		cl.CPU(0).Spawn("late0", func(p *Process) { p.Send("sink", 64, nil) })
	})
	eng.RunUntil(3 * sim.Second)
	r.takeover = cl.LookupCPU("svc")
	r.blocked, r.live = eng.BlockedProcs(), eng.LiveProcs()
	for i := range r.exec {
		r.exec[i] = cl.CPU(i).exec.InUse()
	}
	eng.Shutdown()
	return r, firstArrival
}

// TestFaultInsideSendScript lands CPU.Fail and KillPrimary on every leg of
// a message send. The sender parks once for the whole script, so the guard
// that unwinds with it must give back exactly what the script holds at
// that instant: afterwards no execution resource is held, traffic through
// both of the victim's links flows at full speed, nothing on the node is
// wedged, the backup takes over and sends, and a restored CPU runs a fresh
// dispatcher that delivers.
func TestFaultInsideSendScript(t *testing.T) {
	faults := []struct {
		name  string
		apply func(cl *Cluster, pr *Pair)
	}{
		{"KillPrimary", func(cl *Cluster, pr *Pair) { pr.KillPrimary() }},
		{"CPU.Fail", func(cl *Cluster, pr *Pair) { cl.CPU(0).Fail() }},
		// Only meaningful for the last leg: the frame dies with the
		// dispatcher it was handed to.
		{"sink CPU.Fail", func(cl *Cluster, pr *Pair) { cl.CPU(2).Fail() }},
	}
	// An undisturbed 64-byte Call from CPU 3 to a server on CPU 0 that
	// computes 10 µs.
	clean, _ := runSendFault(t, sendFaults[1], nil)
	cleanRTT := clean.probeRTT
	for _, f := range sendFaults {
		for _, flt := range faults {
			sinkFault := flt.name == "sink CPU.Fail"
			if sinkFault && f.at != 0 {
				continue
			}
			t.Run(f.leg+"/"+flt.name, func(t *testing.T) {
				r, _ := runSendFault(t, f, flt.apply)
				delivered := f.at == 0 && !sinkFault
				switch {
				case f.at != 0 && r.returned:
					t.Errorf("the first Send returned %v, want the sender killed inside it", r.firstErr)
				case f.at == 0 && (!r.returned || r.firstErr != nil):
					t.Errorf("the first Send returned=%v err=%v, want nil: the hardware had acknowledged the frame", r.returned, r.firstErr)
				}
				// The sink hears from the first incarnation only if its frame
				// got through, then from the takeover's and the late sender.
				want := []string{"svc-p2", "late0"}
				switch {
				case delivered:
					want = []string{"svc-p1", "svc-p2", "late0"}
				case sinkFault:
					want = []string{"late0"} // the pair's primary was never touched
				}
				if !reflect.DeepEqual(r.heard, want) {
					t.Errorf("sink heard from %v, want %v", r.heard, want)
				}
				if wantCPU := map[bool]int{true: 0, false: 1}[sinkFault]; r.takeover != wantCPU {
					t.Errorf("service ended on CPU %d, want %d", r.takeover, wantCPU)
				}
				if r.exec != [4]int{} {
					t.Errorf("execution resources still held at the end: %v", r.exec)
				}
				if r.probeErr != nil || r.probeRTT != cleanRTT {
					t.Errorf("call through CPU 0's dispatcher: err %v in %v, want nil in %v", r.probeErr, r.probeRTT, cleanRTT)
				}
				// Everything left is a server parked on its inbox.
				wantBlocked := []string{"cpu0-msgsys", "cpu1-msgsys", "cpu2-msgsys", "cpu3-msgsys", "echo0", "sink", "svc-p2"}
				if sinkFault {
					wantBlocked = []string{"cpu0-msgsys", "cpu1-msgsys", "cpu2-msgsys", "cpu3-msgsys", "echo0", "sink", "svc-b1", "svc-p1"}
				}
				if f.bulk >= 0 && !(flt.name == "CPU.Fail" && f.bulk == 0) {
					// The bulk transfer's sink outlives everything but its CPU.
					wantBlocked = append(wantBlocked, fmt.Sprintf("bulk-sink%d", f.bulk))
				}
				sort.Strings(wantBlocked)
				sort.Strings(r.blocked)
				if !reflect.DeepEqual(r.blocked, wantBlocked) || r.live != len(wantBlocked) {
					t.Errorf("parked at the end: %v (%d live)\nwant %v", r.blocked, r.live, wantBlocked)
				}
			})
		}
	}
}

// A handler run by Serve is a step: the dispatcher's or a backup's loop
// body must never block, and one that tries — a Call from inside it — fails
// loudly with the server's name.
func TestBlockingCallInsideServePanics(t *testing.T) {
	eng, cl := newTestCluster(1)
	cl.Register("echo", cl.CPU(1).Spawn("echo", func(p *Process) {
		for {
			ev := p.Recv()
			ev.Reply(nil)
		}
	}))
	srv := cl.CPU(0).Spawn("bad-server", func(p *Process) {
		p.Inbox().Serve(p.Sim(), func(v interface{}) { p.Call("echo", 64, nil) })
	})
	cl.Register("bad-server", srv)
	cl.CPU(0).Spawn("client", func(p *Process) { p.Send("bad-server", 64, nil) })
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, `"bad-server"`) {
			t.Errorf("Run panicked with %q, want the blocked server named", msg)
		}
		eng.Shutdown()
	}()
	eng.Run()
	t.Error("a Call from inside a Serve handler did not panic")
}
