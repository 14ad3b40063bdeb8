package cluster

import (
	"persistmem/internal/servernet"
	"persistmem/internal/sim"
)

// legPhase names the wake-up a leg's process is parked on.
type legPhase uint8

const (
	legIdle     legPhase = iota // nothing armed, nothing held
	legQueued                   // queued on the CPU's execution resource
	legHolding                  // holding it for the work's duration
	legTransfer                 // the message is crossing the fabric
	legReply                    // waiting for a call's reply or its timeout
)

// legKind is what a leg does once its CPU hold is over.
type legKind uint8

const (
	kindCompute legKind = iota // nothing: the hold was the work
	kindSend                   // deliver a one-way message
	kindAsync                  // deliver a request; the reply signal is the result
	kindCall                   // deliver a request and wait for its reply
)

// Leg is one blocking message-system operation in flight — a Compute, a
// one-way Send, a Call, a CallAsync's send, an AwaitReply, a pair checkpoint
// — as a script of timed legs: take the CPU's execution resource, hold it for
// the work's duration, release it; for a message, deliver it, through the
// fabric's transfer script when the destination is on another CPU; for a
// call, wait for the reply or the call timeout.
//
// Each operation has this one implementation, used both ways. The blocking
// methods of Process draw a Leg from the cluster's free list, arm it and park
// once on it (sim.Proc.ParkScript). A process that walks a longer script of
// its own — a server's request path (sim.Chan.ServeLegs), a coordinator's
// commit — keeps a Leg for its lifetime, arms it from its own step function,
// forwards its wake-ups to Step until that reports true, reads the outcome
// (Err, Value, Signal) and defers Abort as its kill guard. Arming reports
// true when the operation is already over and there is nothing to park for.
// The zero value is idle.
type Leg struct {
	p     *Process
	phase legPhase
	kind  legKind
	hold  sim.Time

	// The message that follows the hold; to is nil for a Compute.
	to      *registration
	sz      int
	payload interface{}
	// reply is a call's completion signal, until the reply is taken.
	reply *sim.Signal
	// frame is what went to the fabric, kept so that a failed send can
	// reclaim it; after a successful one it belongs to the receiving CPU.
	frame *routedFrame //simlint:boxowner -- the sender owns the frame until the fabric delivers it
	xfer  servernet.Transfer
	// ckpt is the pair a checkpoint call counts its round trip against.
	ckpt *Pair

	val interface{}
	err error
}

// Err returns the outcome of the finished operation.
func (l *Leg) Err() error { return l.err }

// Value returns a finished Call's or AwaitReply's reply.
func (l *Leg) Value() interface{} { return l.val }

// Signal returns a finished CallAsync's reply signal (nil if it failed).
func (l *Leg) Signal() *sim.Signal { return l.reply }

// reset makes l an operation of kind for p, clearing the last one's outcome.
//
//simlint:hotpath
func (l *Leg) reset(p *Process, kind legKind) {
	*l = Leg{p: p, kind: kind}
}

// Compute arms d of work on p's CPU, queueing behind other processes there.
//
//simlint:hotpath
func (l *Leg) Compute(p *Process, d sim.Time) (done bool) {
	l.reset(p, kindCompute)
	l.hold = d
	return l.begin()
}

// Send arms a one-way message of wire size sz to the process registered
// under name.
//
//simlint:hotpath
func (l *Leg) Send(p *Process, name string, sz int, payload interface{}) (done bool) {
	return l.send(p, kindSend, name, sz, payload, nil, nil)
}

// Call arms a request and the wait for its reply, under the call timeout.
//
//simlint:hotpath
func (l *Leg) Call(p *Process, name string, sz int, payload interface{}) (done bool) {
	return l.send(p, kindCall, name, sz, payload, p.cpu.cl.eng.NewSignal(), nil)
}

// CallAsync arms a request whose reply the caller collects later: the leg is
// over once the request is delivered, and Signal fires with the reply.
//
//simlint:hotpath
func (l *Leg) CallAsync(p *Process, name string, sz int, payload interface{}) (done bool) {
	return l.send(p, kindAsync, name, sz, payload, p.cpu.cl.eng.NewSignal(), nil)
}

// AwaitReply arms the wait for a CallAsync signal, under the call timeout.
// On success the signal is recycled; the caller must not reuse it.
//
//simlint:hotpath
func (l *Leg) AwaitReply(p *Process, reply *sim.Signal) (done bool) {
	l.reset(p, kindCall)
	l.reply = reply
	return l.await()
}

// Checkpoint arms the checkpoint of delta, of wire size sz, to pr's backup:
// a call it counts against the pair once the backup has acknowledged it.
// With no live backup the primary runs unprotected: the delta is folded into
// the pair's held state at once and the checkpoint is a successful no-op.
//
//simlint:hotpath
func (l *Leg) Checkpoint(pr *Pair, p *Process, sz int, delta interface{}) (done bool) {
	if pr.backup == nil || pr.backup.Done() {
		// Keep the shadow state current for a later Rebackup.
		pr.state = pr.absorb(pr.state, delta)
		l.reset(p, kindCall)
		return true
	}
	return l.send(p, kindCall, pr.bakName, sz, delta, p.cpu.cl.eng.NewSignal(), pr)
}

// send arms a message leg: the message-system software cost on the sending
// CPU, then the message.
//
//simlint:hotpath
func (l *Leg) send(p *Process, kind legKind, name string, sz int, payload interface{}, reply *sim.Signal, ckpt *Pair) (done bool) {
	l.reset(p, kind)
	cl := p.cpu.cl
	r, ok := cl.registry[name]
	if !ok {
		cl.eng.FreeSignal(reply)
		l.err = ErrNoProcess
		return true
	}
	l.hold = msgSystemOverhead
	l.to, l.sz, l.payload, l.reply, l.ckpt = r, sz, payload, reply, ckpt
	return l.begin()
}

// begin arms the first leg: take the CPU, or queue for it.
//
//simlint:hotpath
func (l *Leg) begin() (done bool) {
	sp := l.p.proc
	if l.p.cpu.exec.ArmAcquire(sp) {
		sp.ArmWait(l.hold)
		l.phase = legHolding
	} else {
		l.phase = legQueued
	}
	return false
}

// Step implements sim.Stepper: one wake-up of the parked process.
//
//simlint:hotpath
func (l *Leg) Step(sp *sim.Proc) (done bool) {
	cpu := l.p.cpu
	switch l.phase {
	case legQueued:
		cpu.exec.Granted(sp)
		sp.ArmWait(l.hold)
		l.phase = legHolding
		return false
	case legHolding:
		cpu.ComputeTime += l.hold
		l.phase = legIdle
		cpu.exec.Release()
		if l.kind == kindCompute {
			return true
		}
		return l.post(sp) && l.sent()
	case legTransfer:
		return l.xfer.Step(sp) && l.sent()
	case legReply:
		l.phase = legIdle
		v, ok := sp.Delivered()
		return l.replied(v, ok)
	}
	panic("cluster: wake-up for process " + l.p.name + " with no leg armed")
}

// post is a message's leg after the CPU hold: box the message and hand it to
// the destination inbox (same CPU: no fabric traversal) or to the fabric.
// It reports whether the delivery is already over.
//
//simlint:hotpath
func (l *Leg) post(sp *sim.Proc) (done bool) {
	p := l.p
	cl := p.cpu.cl
	ev := cl.newEnvelope()
	ev.From = p.name
	ev.Payload = l.payload
	ev.reply = l.reply
	if l.to.cpu == p.cpu {
		// Process inboxes are unbounded: the envelope is never refused.
		l.to.inbox.TrySend(ev)
		return true
	}
	frame := cl.newFrame()
	frame.dst = l.to.inbox
	frame.ev = ev
	l.frame = frame
	l.phase = legTransfer
	return cl.fab.BeginSend(&l.xfer, sp, p.cpu.ep.ID(), l.to.cpu.ep.ID(), l.sz, frame)
}

// sent runs once the message is delivered or its transfer failed: a failed
// frame never reached the destination inbox, so its boxes are reclaimed and
// a call's signal recycled; a delivered call goes on to wait for its reply.
//
//simlint:hotpath
func (l *Leg) sent() (done bool) {
	l.phase = legIdle
	l.to, l.payload = nil, nil
	if frame := l.frame; frame != nil {
		l.frame = nil
		if err := l.xfer.Err(); err != nil {
			cl, ev := l.p.cpu.cl, frame.ev
			cl.freeFrame(frame)
			cl.freeEnvelope(ev)
			cl.eng.FreeSignal(l.reply)
			l.reply, l.err = nil, err
			return true
		}
	}
	if l.kind != kindCall {
		return true
	}
	return l.await()
}

// await arms the wait for the reply, or takes a reply already there.
//
//simlint:hotpath
func (l *Leg) await() (done bool) {
	v, ok := l.reply.ArmWait(l.p.proc, CallTimeout)
	if !ok {
		l.phase = legReply
		return false
	}
	return l.replied(v, true)
}

// replied takes the reply, or the timeout: the server may still hold the
// envelope and trigger a late reply then, so the signal cannot be recycled.
//
//simlint:hotpath
func (l *Leg) replied(v interface{}, ok bool) (done bool) {
	sig := l.reply
	l.reply = nil
	if !ok {
		l.err = ErrTimeout
		return true
	}
	l.p.cpu.cl.eng.FreeSignal(sig)
	l.val = v
	if pr := l.ckpt; pr != nil {
		pr.Checkpoints++
		pr.CheckpointBytes += int64(l.sz)
	}
	return true
}

// Abort is the kill guard: deferred by whoever parks on the leg, it releases
// what the leg holds at the instant its process is unwound — the CPU during
// the hold, the fabric ports during the transfer — each exactly once. A
// queued acquire holds nothing yet, and a grant made in the kill's instant is
// given back by the kernel (sim.Proc's grant). After a finished operation it
// does nothing.
//
//simlint:hotpath
func (l *Leg) Abort() {
	switch l.phase {
	case legHolding:
		l.p.cpu.exec.Release()
	case legTransfer:
		l.xfer.Abort()
	}
	l.phase = legIdle
}

//simlint:hotpath
func (cl *Cluster) newLeg() *Leg {
	if n := len(cl.legfree); n > 0 {
		l := cl.legfree[n-1]
		cl.legfree[n-1] = nil
		cl.legfree = cl.legfree[:n-1]
		return l
	}
	return &Leg{}
}

// freeLeg releases whatever l still holds — nothing, unless its process is
// being unwound — and recycles it.
//
//simlint:hotpath
func (cl *Cluster) freeLeg(l *Leg) {
	l.Abort()
	*l = Leg{}
	cl.legfree = append(cl.legfree, l)
}

// park parks p on the pooled leg l until it is over — at once, if arming
// said so. The caller defers freeLeg first: it is the kill guard.
//
//simlint:hotpath
func (p *Process) park(l *Leg, done bool) {
	if !done {
		p.proc.ParkScript(l)
	}
}
