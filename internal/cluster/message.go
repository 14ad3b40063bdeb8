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

// Send delivers a one-way message of wire size sz to the process
// registered under name. It returns ErrNoProcess if the name is unbound
// and propagates fabric errors.
func (p *Process) Send(name string, sz int, payload interface{}) error {
	return p.send(name, sz, payload, nil)
}

//simlint:hotpath
func (p *Process) send(name string, sz int, payload interface{}, reply *sim.Signal) error {
	cl := p.cpu.cl
	r, ok := cl.registry[name]
	if !ok {
		return ErrNoProcess
	}
	// Message-system software cost on the sending CPU, then the message.
	s := cl.newScript()
	s.hold = msgSystemOverhead
	s.to, s.sz, s.payload, s.reply = r, sz, payload, reply
	return p.run(s)
}

// routedFrame is the wire format of a message-system frame: the envelope
// plus the destination inbox resolved at send time.
type routedFrame struct {
	dst *sim.Chan
	ev  *Envelope //simlint:boxowner -- the in-flight frame owns the envelope until delivery
}

// Call sends a request and blocks until the reply arrives or the cluster
// call timeout expires.
//
//simlint:hotpath
func (p *Process) Call(name string, sz int, payload interface{}) (interface{}, error) {
	cl := p.cpu.cl
	reply := cl.eng.NewSignal()
	if err := p.send(name, sz, payload, reply); err != nil {
		cl.eng.FreeSignal(reply)
		return nil, err
	}
	v, ok := reply.WaitTimeout(p.proc, CallTimeout)
	if !ok {
		// The server may still hold the envelope and trigger a late reply;
		// the signal cannot be recycled.
		return nil, ErrTimeout
	}
	cl.eng.FreeSignal(reply)
	return v, nil
}

// CallAsync sends a request and returns a signal that fires with the
// reply, letting a process issue several requests concurrently (the
// paper's "asynchronous inserts") and collect completions later.
//
//simlint:hotpath
func (p *Process) CallAsync(name string, sz int, payload interface{}) (*sim.Signal, error) {
	cl := p.cpu.cl
	reply := cl.eng.NewSignal()
	if err := p.send(name, sz, payload, reply); err != nil {
		cl.eng.FreeSignal(reply)
		return nil, err
	}
	return reply, nil
}

// AwaitReply blocks on a CallAsync signal with the cluster call timeout.
// On success the signal is recycled; the caller must not reuse it.
//
//simlint:hotpath
func (p *Process) AwaitReply(reply *sim.Signal) (interface{}, error) {
	v, ok := reply.WaitTimeout(p.proc, CallTimeout)
	if !ok {
		return nil, ErrTimeout
	}
	p.cpu.cl.eng.FreeSignal(reply)
	return v, nil
}

// open copies an arrived envelope out of its box and recycles the box.
//
//simlint:hotpath
func (p *Process) open(v interface{}) Envelope {
	box := v.(*Envelope)
	ev := *box
	p.cpu.cl.freeEnvelope(box)
	return ev
}

// Recv blocks until the next envelope arrives in the process inbox.
//
//simlint:hotpath
func (p *Process) Recv() Envelope {
	return p.open(p.Inbox().Recv(p.proc))
}

// RecvTimeout blocks for at most d; ok is false on timeout.
func (p *Process) RecvTimeout(d sim.Time) (Envelope, bool) {
	v, ok := p.Inbox().RecvTimeout(p.proc, d)
	if !ok {
		return Envelope{}, false
	}
	return p.open(v), true
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
	return p.open(v), true
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
