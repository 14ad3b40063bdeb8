package cluster

import (
	"persistmem/internal/servernet"
	"persistmem/internal/sim"
)

// scriptPhase names the wake-up a script's process is parked on.
type scriptPhase uint8

const (
	scriptIdle     scriptPhase = iota // nothing armed, nothing held
	scriptQueued                      // queued on the CPU's execution resource
	scriptHolding                     // holding it for the work's duration
	scriptTransfer                    // the message is crossing the fabric
)

// script is one Compute or send in flight: take the CPU's execution
// resource, hold it for the work's duration, release it, and — for a send —
// deliver the message, through the fabric's transfer script when the
// destination is on another CPU. The process parks once; the dispatcher
// walks the legs (Step) and the process continues at the instant the last
// one completes. A process has at most one in flight, drawn from the
// cluster's free list for the duration of the call.
type script struct {
	p     *Process
	phase scriptPhase
	hold  sim.Time

	// The message that follows the hold; to is nil for a plain Compute.
	to      *registration
	sz      int
	payload interface{}
	reply   *sim.Signal
	// frame is what went to the fabric, kept so that a failed send can
	// reclaim it; after a successful one it belongs to the receiving CPU.
	frame *routedFrame //simlint:boxowner -- the sender owns the frame until the fabric delivers it
	xfer  servernet.Transfer
}

//simlint:hotpath
func (cl *Cluster) newScript() *script {
	if n := len(cl.scriptfree); n > 0 {
		s := cl.scriptfree[n-1]
		cl.scriptfree[n-1] = nil
		cl.scriptfree = cl.scriptfree[:n-1]
		return s
	}
	return &script{}
}

// run parks p on the script s and returns the send's outcome, recycling s.
// The deferred end is the kill guard: a process killed mid-script (a CPU
// failure unwinding it) gives back exactly what the script holds at that
// instant, so it cannot leak the execution resource or a fabric port and
// wedge every other process on the CPU.
//
//simlint:hotpath
func (p *Process) run(s *script) error {
	s.p = p
	defer s.end()
	sp := p.proc
	if p.cpu.exec.ArmAcquire(sp) {
		sp.ArmWait(s.hold)
		s.phase = scriptHolding
	} else {
		s.phase = scriptQueued
	}
	sp.ParkScript(s)
	if s.frame == nil {
		return nil
	}
	err := s.xfer.Err()
	if err != nil {
		// The frame never reached the destination inbox; reclaim the boxes.
		cl, ev := p.cpu.cl, s.frame.ev
		cl.freeFrame(s.frame)
		cl.freeEnvelope(ev)
	}
	return err
}

// end releases whatever the script still holds — nothing, unless its
// process is being unwound — and recycles it.
//
//simlint:hotpath
func (s *script) end() {
	switch s.phase {
	case scriptHolding:
		s.p.cpu.exec.Release()
	case scriptTransfer:
		s.xfer.Abort()
	}
	cl := s.p.cpu.cl
	*s = script{}
	cl.scriptfree = append(cl.scriptfree, s)
}

// Step implements sim.Stepper: one wake-up of the parked process.
//
//simlint:hotpath
func (s *script) Step(sp *sim.Proc) (done bool) {
	cpu := s.p.cpu
	switch s.phase {
	case scriptQueued:
		cpu.exec.Granted(sp)
		sp.ArmWait(s.hold)
		s.phase = scriptHolding
		return false
	case scriptHolding:
		cpu.ComputeTime += s.hold
		s.phase = scriptIdle
		cpu.exec.Release()
		return s.to == nil || s.post(sp)
	case scriptTransfer:
		return s.xfer.Step(sp)
	}
	panic("cluster: wake-up for process " + s.p.name + " with no script leg armed")
}

// post is a send's leg after the CPU hold: box the message and hand it to
// the destination inbox (same CPU: no fabric traversal) or to the fabric.
// It reports whether the send is already over.
//
//simlint:hotpath
func (s *script) post(sp *sim.Proc) (done bool) {
	p := s.p
	cl := p.cpu.cl
	ev := cl.newEnvelope()
	ev.From = p.name
	ev.Payload = s.payload
	ev.reply = s.reply
	if s.to.cpu == p.cpu {
		// Process inboxes are unbounded: the envelope is never refused.
		s.to.inbox.TrySend(ev)
		return true
	}
	frame := cl.newFrame()
	frame.dst = s.to.inbox
	frame.ev = ev
	s.frame = frame
	s.phase = scriptTransfer
	return cl.fab.BeginSend(&s.xfer, sp, p.cpu.ep.ID(), s.to.cpu.ep.ID(), s.sz, frame)
}
