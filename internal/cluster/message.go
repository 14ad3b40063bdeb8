package cluster

import (
	"fmt"

	"persistmem/internal/servernet"
	"persistmem/internal/sim"
)

// Envelope is what a registered process receives in its inbox for
// messages sent through the message system. Inboxes carry *Envelope
// boxes drawn from the cluster's free list; the receive helpers copy the
// envelope out and recycle the box, so user code only ever sees values.
type Envelope struct {
	// From is the sending process's name.
	From string
	// Payload is the message body. Size accounting happened on the wire;
	// the simulation passes the value itself.
	Payload interface{}
	// reply, if non-nil, receives the reply for Call-style requests.
	reply *sim.Signal
}

// Reply answers a Call with value v; for one-way sends it is a no-op.
// Replying twice to the same envelope panics (a server bug).
//
// The receiver is a value on purpose: a server continuation that replies
// captures its envelope, and a pointer-receiver call there would take the
// envelope's address, make the capture by reference and move every handled
// envelope to the heap (one allocation a request, DESIGN.md §5).
//
//simlint:hotpath
func (ev Envelope) Reply(v interface{}) {
	if ev.reply != nil {
		ev.reply.Trigger(v)
	}
}

// WantsReply reports whether the sender is blocked in Call.
func (ev Envelope) WantsReply() bool { return ev.reply != nil }

// Send delivers a one-way message of wire size sz to the process registered
// under name. It returns ErrNoProcess if the name is unbound and propagates
// fabric errors.
//
//simlint:hotpath
func (p *Process) Send(name string, sz int, payload interface{}) error {
	cl := p.cpu.cl
	l := cl.newLeg()
	defer cl.freeLeg(l)
	p.park(l, l.Send(p, name, sz, payload))
	return l.err
}

// routedFrame is the wire format of a message-system frame: the envelope
// plus the destination inbox resolved at send time.
type routedFrame struct {
	dst *sim.Chan
	ev  *Envelope //simlint:boxowner -- the in-flight frame owns the envelope until delivery
}

// Call sends a request and blocks until the reply arrives or the cluster
// call timeout expires. The process parks once for the whole call.
//
//simlint:hotpath
func (p *Process) Call(name string, sz int, payload interface{}) (interface{}, error) {
	cl := p.cpu.cl
	l := cl.newLeg()
	defer cl.freeLeg(l)
	p.park(l, l.Call(p, name, sz, payload))
	return l.val, l.err
}

// CallAsync sends a request and returns a signal that fires with the
// reply, letting a process issue several requests concurrently (the
// paper's "asynchronous inserts") and collect completions later.
//
//simlint:hotpath
func (p *Process) CallAsync(name string, sz int, payload interface{}) (*sim.Signal, error) {
	cl := p.cpu.cl
	l := cl.newLeg()
	defer cl.freeLeg(l)
	p.park(l, l.CallAsync(p, name, sz, payload))
	return l.reply, l.err
}

// AwaitReply blocks on a CallAsync signal with the cluster call timeout.
// On success the signal is recycled; the caller must not reuse it.
//
//simlint:hotpath
func (p *Process) AwaitReply(reply *sim.Signal) (interface{}, error) {
	cl := p.cpu.cl
	l := cl.newLeg()
	defer cl.freeLeg(l)
	p.park(l, l.AwaitReply(p, reply))
	return l.val, l.err
}

// Open copies an envelope that arrived in the process's inbox out of its box
// and recycles the box: what a server that takes its inbox's values itself
// (sim.Chan.ServeLegs) does with each one.
//
//simlint:hotpath
func (p *Process) Open(v interface{}) Envelope {
	box := v.(*Envelope)
	ev := *box
	p.cpu.cl.freeEnvelope(box)
	return ev
}

// Recv blocks until the next envelope arrives in the process inbox.
//
//simlint:hotpath
func (p *Process) Recv() Envelope {
	return p.Open(p.Inbox().Recv(p.proc))
}

// RecvTimeout blocks for at most d; ok is false on timeout.
func (p *Process) RecvTimeout(d sim.Time) (Envelope, bool) {
	v, ok := p.Inbox().RecvTimeout(p.proc, d)
	if !ok {
		return Envelope{}, false
	}
	return p.Open(v), true
}

// TryRecv returns the next envelope without blocking; ok is false if the
// inbox is empty.
//
//simlint:hotpath
func (p *Process) TryRecv() (Envelope, bool) {
	v, ok := p.Inbox().TryRecv()
	if !ok {
		return Envelope{}, false
	}
	return p.Open(v), true
}

// startDispatcher runs the CPU's message-system delivery loop: it moves
// fabric frames arriving at the CPU endpoint into destination process
// inboxes. Each live CPU runs exactly one dispatcher; CPU.Restore starts
// a fresh one. Forwarding never blocks, so the dispatcher serves its inbox
// (sim.Chan.Serve): a frame is forwarded on the stack that delivers it.
func (c *CPU) startDispatcher() {
	c.Spawn(fmt.Sprintf("cpu%d-msgsys", c.index), func(p *Process) {
		c.ep.Inbox.Serve(p.proc, c.forward)
	})
}

// forward delivers one fabric message to the inbox its frame names.
//
//simlint:hotpath
func (c *CPU) forward(v interface{}) {
	cl := c.cl
	m := v.(*servernet.Message)
	payload := m.Payload
	cl.fab.FreeMessage(m)
	if frame, ok := payload.(*routedFrame); ok {
		dst, ev := frame.dst, frame.ev
		cl.freeFrame(frame)
		// Process inboxes are unbounded: the envelope is never refused.
		dst.TrySend(ev)
	}
}
