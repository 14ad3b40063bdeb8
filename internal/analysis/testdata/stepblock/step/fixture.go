// Package step exercises stepblock: a blocking primitive reached from a
// sim.Stepper's Step or a sim.Server's Handle — directly or through the
// package's own functions — is flagged; the non-parking halves, function
// literals (which run on another process's stack) and code no script reaches
// are not.
package step

import (
	"persistmem/internal/cluster"
	"persistmem/internal/locks"
	"persistmem/internal/pmclient"
	"persistmem/internal/sim"
)

type script struct {
	p    *cluster.Process
	sig  *sim.Signal
	ch   *sim.Chan
	res  *sim.Resource
	leg  cluster.Leg
	pmw  pmclient.WriteLeg
	r    *pmclient.Region
	lm   *locks.Manager
	fail bool
}

func (s *script) Step(sp *sim.Proc) bool {
	sp.Wait(1)                                 // want `blocking Proc\.Wait called on the dispatching stack \(reached from \(\*script\)\.Step\)`
	s.sig.WaitTimeout(sp, 1)                   // want `blocking Signal\.WaitTimeout`
	s.ch.Recv(sp)                              // want `blocking Chan\.Recv`
	s.res.Acquire(sp)                          // want `blocking Resource\.Acquire`
	sp.ParkScript(s)                           // want `blocking Proc\.ParkScript`
	s.lm.Acquire(sp, 1, 1, locks.Exclusive, 1) // want `blocking Manager\.Acquire`

	// The non-parking halves arm a leg and return.
	sp.ArmWait(1)
	s.sig.ArmWait(sp, 1)
	s.ch.ArmRecv(sp)
	s.res.ArmAcquire(sp)
	s.leg.Call(s.p, "svc", 64, nil)
	s.pmw.Write(s.r, s.p, 0, nil)
	s.lm.TryAcquire(1, 1, locks.Exclusive)
	if s.fail {
		return s.coldPath()
	}
	return s.leg.Step(sp)
}

// coldPath is reached from Step only on a failure, as a script's error
// paths are: the walk follows it all the same.
func (s *script) coldPath() bool {
	s.p.Compute(1)           // want `blocking Process\.Compute called on the dispatching stack \(reached from \(\*script\)\.Step via \(\*script\)\.coldPath\)`
	s.p.Call("svc", 64, nil) // want `blocking Process\.Call`
	s.r.Write(s.p, 0, nil)   // want `blocking Region\.Write`
	s.p.CPU().Spawn("waiter", func(p *cluster.Process) {
		p.Call("svc", 64, nil) // a spawned process blocks on its own stack
		s.lm.Acquire(p.Sim(), 1, 1, locks.Shared, 1)
	})
	return helper(s.p)
}

func helper(p *cluster.Process) bool {
	p.AwaitReply(nil) // want `blocking Process\.AwaitReply called on the dispatching stack \(reached from \(\*script\)\.Step via \(\*script\)\.coldPath → helper\)`
	return true
}

type server struct{ s *script }

func (v server) Handle(sp *sim.Proc, _ interface{}) bool {
	v.s.p.CallAsync("svc", 64, nil) // want `blocking Process\.CallAsync called on the dispatching stack \(reached from server\.Handle\)`
	return true
}

func (v server) Step(sp *sim.Proc) bool { return v.s.Step(sp) }

// run is a process body: it may block, and nothing a script runs reaches it.
func (s *script) run(sp *sim.Proc) {
	sp.Wait(1)
	s.p.Compute(1)
	sp.ParkScript(s)
}

// notAStep has the name but not the signature of a Stepper's method.
type notAStep struct{}

func (notAStep) Step(p *cluster.Process) bool {
	p.Compute(1)
	return true
}
