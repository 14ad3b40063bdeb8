package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"persistmem/internal/sim"
)

func newTestCluster(seed int64) (*sim.Engine, *Cluster) {
	eng := sim.NewEngine(seed)
	return eng, New(eng, DefaultConfig())
}

func TestIntraCPUMessaging(t *testing.T) {
	eng, cl := newTestCluster(1)
	cpu := cl.CPU(0)
	var got Envelope
	srv := cpu.Spawn("server", func(p *Process) {
		got = p.Recv()
	})
	cl.Register("server", srv)
	cpu.Spawn("client", func(p *Process) {
		if err := p.Send("server", 64, "hi"); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	eng.Run()
	if got.Payload != "hi" || got.From != "client" {
		t.Errorf("got %+v", got)
	}
}

func TestCrossCPUMessaging(t *testing.T) {
	eng, cl := newTestCluster(1)
	var got Envelope
	var at sim.Time
	srv := cl.CPU(1).Spawn("server", func(p *Process) {
		got = p.Recv()
		at = p.Now()
	})
	cl.Register("server", srv)
	cl.CPU(0).Spawn("client", func(p *Process) {
		if err := p.Send("server", 1024, 42); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	eng.Run()
	if got.Payload != 42 {
		t.Errorf("got %+v", got)
	}
	// Crossing the fabric costs at least the ServerNet software latency.
	if at < 15*sim.Microsecond {
		t.Errorf("cross-CPU delivery at %v, expected fabric latency", at)
	}
	eng.Shutdown()
}

func TestCallReply(t *testing.T) {
	eng, cl := newTestCluster(1)
	srv := cl.CPU(1).Spawn("adder", func(p *Process) {
		for {
			ev := p.Recv()
			if !ev.WantsReply() {
				t.Error("Call envelope did not want a reply")
			}
			ev.Reply(ev.Payload.(int) + 1)
		}
	})
	cl.Register("adder", srv)
	var got interface{}
	cl.CPU(0).Spawn("client", func(p *Process) {
		var err error
		got, err = p.Call("adder", 64, 41)
		if err != nil {
			t.Errorf("Call: %v", err)
		}
	})
	eng.Run()
	if got != 42 {
		t.Errorf("Call reply = %v, want 42", got)
	}
	eng.Shutdown()
}

func TestSendToUnknownName(t *testing.T) {
	eng, cl := newTestCluster(1)
	cl.CPU(0).Spawn("client", func(p *Process) {
		if err := p.Send("ghost", 64, nil); !errors.Is(err, ErrNoProcess) {
			t.Errorf("err = %v, want ErrNoProcess", err)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestCallTimeoutWhenServerDead(t *testing.T) {
	eng, cl := newTestCluster(1)
	srv := cl.CPU(1).Spawn("mute", func(p *Process) {
		p.Recv() // receives but never replies, then exits
	})
	cl.Register("mute", srv)
	var err error
	cl.CPU(0).Spawn("client", func(p *Process) {
		_, err = p.Call("mute", 64, nil)
	})
	eng.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
	eng.Shutdown()
}

func TestComputeContention(t *testing.T) {
	eng, cl := newTestCluster(1)
	cpu := cl.CPU(0)
	var done []sim.Time
	for i := 0; i < 2; i++ {
		cpu.Spawn(fmt.Sprintf("worker%d", i), func(p *Process) {
			p.Compute(10 * sim.Millisecond)
			done = append(done, p.Now())
		})
	}
	eng.Run()
	if len(done) != 2 {
		t.Fatalf("finished %d workers", len(done))
	}
	if done[1] < 20*sim.Millisecond {
		t.Errorf("second worker done at %v; CPU should serialize compute", done[1])
	}
	eng.Shutdown()
}

func TestCPUFailKillsProcesses(t *testing.T) {
	eng, cl := newTestCluster(1)
	cpu := cl.CPU(2)
	reached := false
	cpu.Spawn("victim", func(p *Process) {
		p.Wait(sim.Second)
		reached = true
	})
	eng.Spawn("failer", func(p *sim.Proc) {
		p.Wait(100 * sim.Millisecond)
		cpu.Fail()
	})
	eng.Run()
	if reached {
		t.Error("process survived CPU failure")
	}
	if cpu.Up() {
		t.Error("CPU still up after Fail")
	}
	eng.Shutdown()
}

func TestRegistryDroppedOnCPUFail(t *testing.T) {
	eng, cl := newTestCluster(1)
	srv := cl.CPU(1).Spawn("server", func(p *Process) { p.Recv() })
	cl.Register("server", srv)
	cl.CPU(1).Fail()
	cl.CPU(0).Spawn("client", func(p *Process) {
		if err := p.Send("server", 64, nil); !errors.Is(err, ErrNoProcess) {
			t.Errorf("send to failed CPU's name: %v, want ErrNoProcess", err)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestPairCheckpointAndTakeover(t *testing.T) {
	eng, cl := newTestCluster(1)
	var served []int
	pair := cl.StartPair("svc", 0, 1, func(ctx *PairCtx) {
		count := 0
		if ctx.Restored != nil {
			count = ctx.Restored.(int)
		}
		for {
			ev := ctx.Recv()
			count++
			if err := ctx.Checkpoint(128, count); err != nil {
				t.Errorf("Checkpoint: %v", err)
			}
			served = append(served, count)
			ev.Reply(count)
		}
	})
	results := make([]interface{}, 0, 4)
	cl.CPU(2).Spawn("client", func(p *Process) {
		for i := 0; i < 2; i++ {
			v, err := p.Call("svc", 64, "req")
			if err != nil {
				t.Errorf("Call %d: %v", i, err)
			}
			results = append(results, v)
		}
		// Kill the primary's CPU; the backup must take over with the
		// checkpointed count.
		cl.CPU(0).Fail()
		p.Wait(TakeoverDelay + 100*sim.Millisecond)
		for i := 0; i < 2; i++ {
			v, err := p.Call("svc", 64, "req")
			if err != nil {
				t.Errorf("post-takeover Call %d: %v", i, err)
			}
			results = append(results, v)
		}
	})
	eng.Run()
	want := []interface{}{1, 2, 3, 4}
	if fmt.Sprint(results) != fmt.Sprint(want) {
		t.Errorf("results = %v, want %v (state must survive takeover)", results, want)
	}
	if pair.Takeovers != 1 {
		t.Errorf("Takeovers = %d, want 1", pair.Takeovers)
	}
	if pair.PrimaryCPU() != 1 {
		t.Errorf("primary now on CPU %d, want 1", pair.PrimaryCPU())
	}
	eng.Shutdown()
}

func TestPairTakeoverWithinASecond(t *testing.T) {
	// The paper: "a backup process takes over from its primary in a second
	// or less."
	eng, cl := newTestCluster(1)
	cl.StartPair("svc", 0, 1, func(ctx *PairCtx) {
		for {
			ev := ctx.Recv()
			ev.Reply("ok")
		}
	})
	var gap sim.Time
	cl.CPU(2).Spawn("client", func(p *Process) {
		if _, err := p.Call("svc", 64, nil); err != nil {
			t.Fatalf("initial call: %v", err)
		}
		cl.CPU(0).Fail()
		failedAt := p.Now()
		for {
			if _, err := p.Call("svc", 64, nil); err == nil {
				gap = p.Now() - failedAt
				return
			}
			p.Wait(50 * sim.Millisecond)
		}
	})
	eng.Run()
	if gap == 0 || gap > sim.Second {
		t.Errorf("service unavailable for %v, want (0, 1s]", gap)
	}
	eng.Shutdown()
}

func TestPairDoubleFailureIsOutage(t *testing.T) {
	eng, cl := newTestCluster(1)
	pair := cl.StartPair("svc", 0, 1, func(ctx *PairCtx) {
		for {
			ev := ctx.Recv()
			ev.Reply(nil)
		}
	})
	cl.CPU(2).Spawn("chaos", func(p *Process) {
		p.Wait(10 * sim.Millisecond)
		cl.CPU(0).Fail()
		cl.CPU(1).Fail()
		p.Wait(2 * TakeoverDelay)
		if pair.Up() {
			t.Error("pair still up after double failure")
		}
		if _, err := p.Call("svc", 64, nil); err == nil {
			t.Error("call succeeded during outage")
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestPairRebackup(t *testing.T) {
	eng, cl := newTestCluster(1)
	pair := cl.StartPair("svc", 0, 1, func(ctx *PairCtx) {
		n := 0
		if ctx.Restored != nil {
			n = ctx.Restored.(int)
		}
		for {
			ev := ctx.Recv()
			n++
			ctx.Checkpoint(64, n)
			ev.Reply(n)
		}
	})
	var final interface{}
	cl.CPU(2).Spawn("client", func(p *Process) {
		p.Call("svc", 64, nil) // n=1
		cl.CPU(0).Fail()       // primary dies; takeover to CPU 1
		p.Wait(TakeoverDelay + 50*sim.Millisecond)
		cl.CPU(0).Restore()
		pair.Rebackup(0)       // re-pair onto the reloaded CPU
		p.Call("svc", 64, nil) // n=2
		cl.CPU(1).Fail()       // new primary dies; takeover back to CPU 0
		p.Wait(TakeoverDelay + 50*sim.Millisecond)
		final, _ = p.Call("svc", 64, nil) // n=3
	})
	eng.Run()
	if final != 3 {
		t.Errorf("final count = %v, want 3 (state must survive two takeovers)", final)
	}
	if pair.Takeovers != 2 {
		t.Errorf("Takeovers = %d, want 2", pair.Takeovers)
	}
	eng.Shutdown()
}

func TestPairStop(t *testing.T) {
	eng, cl := newTestCluster(1)
	pair := cl.StartPair("svc", 0, 1, func(ctx *PairCtx) {
		for {
			ev := ctx.Recv()
			ev.Reply(nil)
		}
	})
	eng.Spawn("stopper", func(p *sim.Proc) {
		p.Wait(10 * sim.Millisecond)
		pair.Stop()
	})
	eng.Run()
	if pair.Up() {
		t.Error("pair up after Stop")
	}
	if pair.Takeovers != 0 {
		t.Error("Stop triggered a takeover")
	}
	if cl.LookupCPU("svc") != -1 {
		t.Error("name still registered after Stop")
	}
	eng.Shutdown()
}

func TestPowerFailAndRestore(t *testing.T) {
	eng, cl := newTestCluster(1)
	survived := false
	cl.CPU(0).Spawn("app", func(p *Process) {
		p.Wait(sim.Second)
		survived = true
	})
	eng.Spawn("power", func(p *sim.Proc) {
		p.Wait(100 * sim.Millisecond)
		cl.PowerFail()
		p.Wait(100 * sim.Millisecond)
		cl.RestorePower()
	})
	eng.Run()
	if survived {
		t.Error("process survived power failure")
	}
	for i := 0; i < cl.NumCPUs(); i++ {
		if !cl.CPU(i).Up() {
			t.Errorf("CPU %d not up after RestorePower", i)
		}
	}
	// The node is usable again.
	ran := false
	cl.CPU(0).Spawn("post", func(p *Process) { ran = true })
	eng.Run()
	if !ran {
		t.Error("cannot spawn after RestorePower")
	}
	eng.Shutdown()
}

func TestCheckpointBytesAccounting(t *testing.T) {
	eng, cl := newTestCluster(1)
	pair := cl.StartPair("svc", 0, 1, func(ctx *PairCtx) {
		for i := 0; i < 3; i++ {
			ctx.Checkpoint(1000, i)
		}
	})
	eng.Run()
	if pair.Checkpoints != 3 || pair.CheckpointBytes != 3000 {
		t.Errorf("Checkpoints=%d CheckpointBytes=%d, want 3/3000",
			pair.Checkpoints, pair.CheckpointBytes)
	}
	eng.Shutdown()
}

func TestKillDuringComputeDoesNotWedgeCPU(t *testing.T) {
	// A process killed mid-computation (software fault, CPU failure) must
	// not leak the execution resource: later processes on the same CPU
	// still get to run.
	eng, cl := newTestCluster(1)
	victim := cl.CPU(0).Spawn("victim", func(p *Process) {
		p.Compute(10 * sim.Second) // killed in the middle
	})
	eng.Spawn("killer", func(p *sim.Proc) {
		p.Wait(10 * sim.Millisecond)
		victim.Kill()
	})
	ran := false
	cl.CPU(0).Spawn("heir", func(p *Process) {
		p.Wait(20 * sim.Millisecond)
		p.Compute(sim.Millisecond) // must not block forever
		ran = true
	})
	eng.RunUntil(5 * sim.Second)
	if !ran {
		t.Fatal("CPU wedged: heir never computed after victim's mid-compute kill")
	}
	eng.Shutdown()
}

func TestCPUFailDuringComputeThenRestore(t *testing.T) {
	eng, cl := newTestCluster(1)
	cl.CPU(2).Spawn("busy", func(p *Process) {
		p.Compute(10 * sim.Second)
	})
	eng.Spawn("chaos", func(p *sim.Proc) {
		p.Wait(50 * sim.Millisecond)
		cl.CPU(2).Fail()
		p.Wait(50 * sim.Millisecond)
		cl.CPU(2).Restore()
	})
	eng.Run()
	ran := false
	cl.CPU(2).Spawn("post", func(p *Process) {
		p.Compute(sim.Millisecond)
		ran = true
	})
	eng.RunUntil(eng.Now() + 5*sim.Second)
	if !ran {
		t.Fatal("CPU unusable after fail-during-compute and restore")
	}
	eng.Shutdown()
}

// TestCPUFailWithQueuedComputeThenRestore fails a CPU while one process
// holds its execution resource and another is queued on it. CPU.Fail kills
// in spawn order, so with the holder spawned first its unwinding Release
// meets a waiter that is killed but still parked; the unit must not go to
// it, or every Compute on the restored CPU wedges.
func TestCPUFailWithQueuedComputeThenRestore(t *testing.T) {
	for _, holderFirst := range []bool{true, false} {
		eng, cl := newTestCluster(1)
		holder := func(p *Process) { p.Compute(10 * sim.Second) }
		waiter := func(p *Process) {
			p.Wait(sim.Millisecond) // the holder is computing by now
			p.Compute(10 * sim.Second)
		}
		if holderFirst {
			cl.CPU(2).Spawn("holder", holder)
			cl.CPU(2).Spawn("waiter", waiter)
		} else {
			cl.CPU(2).Spawn("waiter", waiter)
			cl.CPU(2).Spawn("holder", holder)
		}
		eng.Spawn("chaos", func(p *sim.Proc) {
			p.Wait(50 * sim.Millisecond)
			cl.CPU(2).Fail()
			p.Wait(50 * sim.Millisecond)
			cl.CPU(2).Restore()
		})
		eng.Run()
		ran := false
		cl.CPU(2).Spawn("post", func(p *Process) {
			p.Compute(sim.Millisecond)
			ran = true
		})
		eng.RunUntil(eng.Now() + 5*sim.Second)
		if !ran {
			t.Errorf("holder spawned first=%v: CPU wedged after failing with a queued Compute", holderFirst)
		}
		eng.Shutdown()
	}
}

// TestKillInTheInstantOfAComputeGrant kills a process queued for the CPU in
// the instant the holder's Compute ends: the execution resource has been
// handed to it and its grant queued, but not dispatched. It unwinds out of
// the script's queued phase, which holds nothing as far as the script knows;
// the kernel gives the unit back, or every later Compute on the CPU wedges.
func TestKillInTheInstantOfAComputeGrant(t *testing.T) {
	eng, cl := newTestCluster(1)
	cpu := cl.CPU(0)
	cpu.Spawn("holder", func(p *Process) { p.Compute(sim.Millisecond) })
	victim := cpu.Spawn("victim", func(p *Process) {
		p.Compute(10 * sim.Second)
		t.Error("victim computed")
	})
	eng.Spawn("killer", func(p *sim.Proc) {
		p.Wait(sim.Millisecond) // queued behind the end of the holder's Compute
		if cpu.exec.InUse() != 1 || cpu.exec.QueueLen() != 0 || victim.Done() {
			t.Errorf("at the kill: exec inUse=%d queue=%d, victim done=%v; want it handed to the parked victim",
				cpu.exec.InUse(), cpu.exec.QueueLen(), victim.Done())
		}
		victim.Kill()
	})
	var ranAt sim.Time
	cpu.Spawn("heir", func(p *Process) {
		p.Wait(2 * sim.Millisecond)
		p.Compute(sim.Millisecond)
		ranAt = p.Now()
	})
	eng.RunUntil(5 * sim.Second)
	if ranAt != 3*sim.Millisecond || cpu.exec.InUse() != 0 {
		t.Errorf("heir computed by %v with exec inUse=%d, want 3ms and 0: the kill leaked the CPU", ranAt, cpu.exec.InUse())
	}
	eng.Shutdown()
}

func TestMessageFIFOPerSender(t *testing.T) {
	// The message system preserves per-sender order: a burst of one-way
	// sends from one process arrives in send order.
	eng, cl := newTestCluster(1)
	var got []interface{}
	srv := cl.CPU(1).Spawn("sink", func(p *Process) {
		for {
			got = append(got, p.Recv().Payload)
		}
	})
	cl.Register("sink", srv)
	cl.CPU(0).Spawn("burst", func(p *Process) {
		for i := 0; i < 20; i++ {
			if err := p.Send("sink", 64, i); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	eng.Run()
	if len(got) != 20 {
		t.Fatalf("received %d/20", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d arrived as %v; order broken", i, v)
		}
	}
	eng.Shutdown()
}

func TestConcurrentCallsAllAnswered(t *testing.T) {
	eng, cl := newTestCluster(1)
	srv := cl.CPU(1).Spawn("echo", func(p *Process) {
		for {
			ev := p.Recv()
			ev.Reply(ev.Payload)
		}
	})
	cl.Register("echo", srv)
	answered := 0
	for c := 0; c < 3; c++ {
		c := c
		cl.CPU(c%4).Spawn(fmt.Sprintf("caller%d", c), func(p *Process) {
			for i := 0; i < 10; i++ {
				v, err := p.Call("echo", 64, c*100+i)
				if err != nil || v != c*100+i {
					t.Errorf("caller %d call %d: %v %v", c, i, v, err)
					return
				}
				answered++
			}
		})
	}
	eng.Run()
	if answered != 30 {
		t.Errorf("answered %d/30 calls", answered)
	}
	eng.Shutdown()
}

func TestDeviceEndpointSurvivesCPUFail(t *testing.T) {
	eng, cl := newTestCluster(1)
	dev := cl.AttachDevice("npmu0")
	cl.CPU(0).Fail()
	if !dev.Up() {
		t.Error("device endpoint failed with CPU")
	}
	eng.Shutdown()
}

func msec(ms int64) sim.Time { return sim.Time(ms) * sim.Millisecond }

// TestTopologyAccessors pins the node's shape: every CPU on the cluster's
// one engine, indexed in order, up, with endpoint i as its fabric address.
func TestTopologyAccessors(t *testing.T) {
	eng, cl := newTestCluster(1)
	defer eng.Shutdown()
	if cl.Engine() != eng || cl.Fabric().Engine() != eng {
		t.Fatal("cluster or fabric is not on the build engine")
	}
	if cl.NumCPUs() != cl.Config().CPUs || !cl.AllUp() {
		t.Fatalf("NumCPUs=%d AllUp=%v, want %d, true", cl.NumCPUs(), cl.AllUp(), cl.Config().CPUs)
	}
	for i := 0; i < cl.NumCPUs(); i++ {
		cpu := cl.CPU(i)
		if cpu.Index() != i || !cpu.Up() || int(cpu.Endpoint().ID()) != i {
			t.Errorf("cpu %d: index=%d up=%v endpoint=%d", i, cpu.Index(), cpu.Up(), cpu.Endpoint().ID())
		}
	}
	cl.CPU(2).Fail()
	if cl.AllUp() {
		t.Error("AllUp with CPU 2 failed")
	}
}

// TestProcessAccessors: a process names its CPU, cluster and kernel
// process, and the non-blocking receives miss on an empty inbox.
func TestProcessAccessors(t *testing.T) {
	eng, cl := newTestCluster(1)
	defer eng.Shutdown()
	cl.CPU(1).Spawn("probe", func(p *Process) {
		if p.Name() != "probe" || p.CPU() != cl.CPU(1) || p.Cluster() != cl || p.Sim() == nil {
			t.Error("process accessors disagree")
		}
		if _, ok := p.TryRecv(); ok {
			t.Error("TryRecv on an empty inbox should miss")
		}
		if _, ok := p.RecvTimeout(msec(1)); ok {
			t.Error("RecvTimeout on an empty inbox should time out")
		}
		p.Compute(msec(1))
		if p.Now() != msec(2) {
			t.Errorf("after a 1ms timeout and 1ms of compute the clock reads %v", p.Now())
		}
	})
	eng.Run()
}

// TestCallAsyncAwaitReply: an asynchronous call across CPUs overlaps the
// caller's own work and AwaitReply collects the answer; the polling
// receives deliver a queued message.
func TestCallAsyncAwaitReply(t *testing.T) {
	eng, cl := newTestCluster(1)
	defer eng.Shutdown()
	cl.CPU(1).Spawn("echo", func(p *Process) {
		cl.Register("echo", p)
		ev, ok := p.RecvTimeout(msec(50))
		if !ok {
			t.Error("RecvTimeout missed a message sent well inside the timeout")
			return
		}
		ev.Reply(fmt.Sprintf("%v@1", ev.Payload))
		p.Wait(msec(5))
		if ev, ok := p.TryRecv(); !ok || ev.Payload != "oneway" || ev.WantsReply() {
			t.Errorf("TryRecv = (%+v, %v), want the queued one-way send", ev, ok)
		}
	})
	cl.CPU(0).Spawn("caller", func(p *Process) {
		p.Wait(msec(1))
		sig, err := p.CallAsync("echo", 256, "ping")
		if err != nil {
			t.Errorf("CallAsync: %v", err)
			return
		}
		issued := p.Now()
		if err := p.Send("echo", 64, "oneway"); err != nil {
			t.Errorf("Send: %v", err)
		}
		v, err := p.AwaitReply(sig)
		if err != nil || v != "ping@1" {
			t.Errorf("AwaitReply = (%v, %v), want ping@1", v, err)
		}
		if p.Now() <= issued {
			t.Error("the reply arrived without any fabric time passing")
		}
		if _, err := p.CallAsync("nobody", 64, nil); !errors.Is(err, ErrNoProcess) {
			t.Errorf("CallAsync to an unknown name: %v, want ErrNoProcess", err)
		}
	})
	eng.Run()
}

// A process gets its inbox when something can first deliver to it or first
// asks it for a message, not at Spawn: the per-request continuations (commit
// coordinators, lock waiters) call out and never receive. Nothing can be
// lost in between, because a name only routes once Register has created the
// inbox it routes to.
func TestInboxCreatedOnFirstUse(t *testing.T) {
	eng, cl := newTestCluster(1)
	var got []interface{}
	srv := cl.CPU(1).Spawn("server", func(p *Process) {
		p.Wait(sim.Millisecond) // three messages arrive before the first Recv
		for len(got) < 3 {
			got = append(got, p.Recv().Payload)
		}
	})
	if srv.inbox != nil {
		t.Error("Spawn created an inbox before anything could use it")
	}
	cl.Register("server", srv)
	if srv.inbox == nil {
		t.Fatal("Register left the name routing to no inbox")
	}
	caller := cl.CPU(0).Spawn("caller", func(p *Process) {
		for i := 0; i < 3; i++ {
			if err := p.Send("server", 64, i); err != nil {
				t.Errorf("Send %d: %v", i, err)
			}
		}
	})
	eng.Run()
	if fmt.Sprint(got) != "[0 1 2]" {
		t.Errorf("server received %v, want the three messages sent before its first Recv, in order", got)
	}
	if caller.inbox != nil {
		t.Error("a process that only sends was given an inbox")
	}
	// An unregistered process's first receive creates its own.
	idle := cl.CPU(0).Spawn("idle", func(p *Process) {
		if _, ok := p.TryRecv(); ok {
			t.Error("TryRecv on a fresh process returned a message")
		}
	})
	eng.Run()
	if idle.inbox == nil {
		t.Error("TryRecv left the process without an inbox")
	}
	eng.Shutdown()
}

// CPU.Fail retires a CPU's processes in spawn order, and for each one the
// CPU's own bookkeeping (the reaper that drops it from the live set) runs
// ahead of the callbacks registered with OnExit — a pair's takeover hook
// among them — exactly as when the bookkeeping was the first of those
// callbacks.
func TestCPUFailExitHooksInSpawnOrder(t *testing.T) {
	eng, cl := newTestCluster(1)
	cpu := cl.CPU(2)
	const n = 8
	var exits []string
	onExit := func(name string, pr *Process) {
		pr.Sim().OnExit(func() {
			if _, live := cpu.procs[pr.Sim()]; live {
				t.Errorf("%s: OnExit callback ran before the CPU dropped the process from its live set", name)
			}
			exits = append(exits, name)
		})
	}
	// Spawned first and finished at once, then restarted after the others:
	// it dies in its new spawn order, last.
	first := true
	restarted := cpu.Spawn("restarted", func(p *Process) {
		if first {
			first = false
			return
		}
		p.Wait(sim.Second) // parked when the CPU fails
	})
	eng.RunUntil(eng.Now())
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("proc%d", i)
		pr := cpu.Spawn(name, func(p *Process) { p.Recv() }) // parks for good
		onExit(name, pr)
	}
	restarted.Restart()
	onExit("restarted", restarted)
	eng.RunUntil(eng.Now()) // every process starts and parks
	live := len(cpu.procs)
	cpu.Fail()
	eng.Run()
	want := make([]string, n, n+1)
	for i := range want {
		want[i] = fmt.Sprintf("proc%d", i)
	}
	want = append(want, "restarted")
	if fmt.Sprint(exits) != fmt.Sprint(want) {
		t.Errorf("exit order %v, want spawn order %v", exits, want)
	}
	if len(cpu.procs) != 0 {
		t.Errorf("%d of %d processes still in the failed CPU's live set", len(cpu.procs), live)
	}
	if cpu.Failures != 1 {
		t.Errorf("Failures = %d after one Fail, want 1", cpu.Failures)
	}
	cpu.Fail() // already down: not another halt
	cpu.Restore()
	if cpu.Failures != 1 || !cpu.Up() {
		t.Errorf("Failures = %d, Up = %v after a no-op Fail and a Restore; want 1, true", cpu.Failures, cpu.Up())
	}
	eng.Shutdown()
}

// TestProcessRestartRefuses: a process is restarted only onto a live CPU, and
// only if it has no inbox an envelope could still be queued in.
func TestProcessRestartRefuses(t *testing.T) {
	eng, cl := newTestCluster(1)
	mustPanic := func(what, want string, pr *Process) {
		t.Helper()
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
				t.Errorf("Restart %s panicked with %q, want %q", what, msg, want)
			}
		}()
		pr.Restart()
	}
	mailbox := cl.CPU(0).Spawn("mailbox", func(p *Process) { p.TryRecv() })
	worker := cl.CPU(1).Spawn("worker", func(p *Process) {})
	eng.Run()
	mustPanic("of a process with an inbox", "has an inbox", mailbox)
	cl.CPU(1).Fail()
	mustPanic("on a failed CPU", "failed CPU", worker)
	cl.CPU(1).Restore()
	worker.Restart()
	if _, live := cl.CPU(1).procs[worker.Sim()]; !live {
		t.Error("a restarted process is not in its CPU's live set")
	}
	eng.Run()
	if _, live := cl.CPU(1).procs[worker.Sim()]; live || !worker.Done() {
		t.Error("a restarted process that finished is still in its CPU's live set")
	}
	eng.Shutdown()
}

// serveOrDefer is shaped like the servers' handlers: it answers at once on
// the fast path and builds a continuation that answers later on the other.
//
//go:noinline
func serveOrDefer(ev Envelope, later *func()) {
	if later != nil {
		*later = func() { ev.Reply(nil) }
		return
	}
	ev.Reply(nil)
}

// An envelope captured by a closure that replies stays on the stack: Reply
// has a value receiver, so the capture is by value and only the branch that
// builds the continuation pays for it. With a pointer receiver the call takes
// the envelope's address, the capture turns by-reference and every envelope
// handled is heap-allocated at function entry — one object per request on the
// fast path too.
func TestRepliedEnvelopeCapturedByClosureDoesNotEscape(t *testing.T) {
	ev := Envelope{From: "client"}
	if n := testing.AllocsPerRun(100, func() { serveOrDefer(ev, nil) }); n != 0 {
		t.Errorf("the fast path allocated %.0f objects per envelope, want 0: Envelope.Reply takes its receiver's address again", n)
	}
	var later func()
	serveOrDefer(ev, &later)
	later() // a one-way send: the reply is a no-op
}
