package servernet

import "persistmem/internal/sim"

// transferTime returns the fabric time for moving n bytes: packetization
// overheads plus serialization at link bandwidth plus one wire traversal
// each way (request and hardware ack).
func (f *Fabric) transferTime(n int) sim.Time {
	packets := (n + packetBytes - 1) / packetBytes
	if packets == 0 {
		packets = 1
	}
	ser := sim.Time(int64(n) * int64(sim.Second) / bytesPerSecond)
	return sim.Time(packets)*perPacketOverhead + ser + 2*wireLatency
}

// crcFault draws a CRC fault for one operation.
func (f *Fabric) crcFault() bool {
	return f.cfg.CRCErrorRate > 0 && f.rng.Float64() < f.cfg.CRCErrorRate
}

// xferPhase names the wake-up a Transfer is parked on.
type xferPhase uint8

const (
	xferIdle     xferPhase = iota // not in flight: nothing armed, nothing held
	xferSoftware                  // the initiator's software latency
	xferPort1                     // queued on the first port
	xferPort2                     // holding the first port, queued on the second
	xferWire                      // holding the ports for the transfer time
	xferService                   // the target device's per-operation service latency
	xferTimeout                   // no hardware ack will come: waiting out Config.Timeout
)

// Transfer is one fabric operation in flight — a message or a one-sided
// RDMA read or write — as a script of timed legs: software latency,
// liveness and path check, both ports in canonical order, the transfer
// time, a second liveness sample, CRC, and for RDMA the target's service
// latency and the memory access itself. A failed leg waits out the ack
// timeout inside the script. The initiating process parks once
// (sim.Proc.ParkScript) and the dispatcher walks the legs through Step;
// the process continues at the instant the operation completes, with Err
// holding its outcome.
//
// Send, RDMAWrite and RDMARead draw their Transfer from the fabric's free
// list. A caller that runs the legs as part of a longer script of its own
// (the cluster message system holds the sending CPU first; a PM region write
// retries and mirrors) owns a Transfer value, starts it with BeginSend or
// BeginRDMAWrite, forwards its wake-ups to Step and defers Abort as the kill
// guard. The zero value is idle.
type Transfer struct {
	f        *Fabric
	src, dst *Endpoint
	// first and second are the endpoints' ports in canonical (id) order, so
	// that opposite-direction transfers cannot deadlock; second is nil for
	// a loopback transfer, which has one port to take.
	first, second *sim.Resource
	phase         xferPhase
	rdma          bool // one-sided operation; otherwise a message
	write         bool
	n             int // bytes on the wire
	start         sim.Time
	err           error

	// message
	payload interface{}
	// rdma
	nva  uint32
	data []byte // write source
	buf  []byte // read destination
}

// Err returns the outcome of the finished operation.
func (t *Transfer) Err() error { return t.err }

// begin validates the operation and arms its first leg. It reports true
// when the operation is already over (Err has the reason) and there is
// nothing to park for.
//
//simlint:hotpath
func (t *Transfer) begin(p *sim.Proc, f *Fabric, from, to EndpointID) (done bool) {
	a, b := f.eps[from], f.eps[to]
	t.f, t.src, t.dst, t.err = f, a, b, nil
	if a == nil || b == nil {
		t.err = ErrEndpointDown
		return true
	}
	switch {
	case a == b:
		t.first, t.second = a.link, nil
	case a.id < b.id:
		t.first, t.second = a.link, b.link
	default:
		t.first, t.second = b.link, a.link
	}
	if t.n == 0 {
		t.err = ErrZeroLength
		return true
	}
	t.start = f.eng.Now()
	// Initiator software cost (user-mode verbs; no kernel transition).
	p.ArmWait(f.cfg.SoftwareLatency)
	t.phase = xferSoftware
	return false
}

// fail ends the operation at once with err.
//
//simlint:hotpath
func (t *Transfer) fail(err error) (done bool) {
	t.err = err
	t.phase = xferIdle
	return true
}

// timeOut ends the operation with err once the ack timeout has passed: the
// initiator can only learn of this failure by the hardware ack never
// arriving.
//
//simlint:hotpath
func (t *Transfer) timeOut(p *sim.Proc, err error) (done bool) {
	t.err = err
	p.ArmWait(ackTimeout)
	t.phase = xferTimeout
	return false
}

// Step implements sim.Stepper: one wake-up of the parked initiator.
//
//simlint:hotpath
func (t *Transfer) Step(p *sim.Proc) (done bool) {
	f := t.f
	switch t.phase {
	case xferSoftware:
		if !t.src.up {
			return t.fail(ErrEndpointDown)
		}
		if _, ok := f.pickPath(); !ok {
			return t.timeOut(p, ErrNoPath)
		}
		if !t.dst.up {
			// No ack ever arrives; the initiator times out.
			return t.timeOut(p, ErrEndpointDown)
		}
		// Serialize through both ports for the transfer duration.
		if !t.first.ArmAcquire(p) {
			t.phase = xferPort1
			return false
		}
		return t.takeSecond(p)
	case xferPort1:
		t.first.Granted(p)
		return t.takeSecond(p)
	case xferPort2:
		t.second.Granted(p)
		return t.hold(p)
	case xferWire:
		// Sample target liveness again: it may have failed mid-transfer. A
		// single path failing mid-transfer is masked by the survivor, but if
		// both fabrics went down the hardware ack never arrives. The ports
		// are freed before any failure-timeout wait.
		downMid := !t.dst.up
		noPathMid := !f.pathUp[0] && !f.pathUp[1]
		t.phase = xferIdle
		t.releasePorts()
		if downMid {
			return t.timeOut(p, ErrEndpointDown)
		}
		if noPathMid {
			return t.timeOut(p, ErrNoPath)
		}
		if f.crcFault() {
			return t.fail(ErrCRC)
		}
		if t.rdma && t.dst.service > 0 {
			p.ArmWait(t.dst.service)
			t.phase = xferService
			return false
		}
		return t.complete()
	case xferService:
		return t.complete()
	case xferTimeout:
		t.phase = xferIdle
		return true
	}
	panic("servernet: wake-up for an idle transfer")
}

// takeSecond continues once the first port is held: take the second (a
// loopback transfer has none), then hold both for the transfer time.
//
//simlint:hotpath
func (t *Transfer) takeSecond(p *sim.Proc) (done bool) {
	if t.second != nil && !t.second.ArmAcquire(p) {
		t.phase = xferPort2
		return false
	}
	return t.hold(p)
}

//simlint:hotpath
func (t *Transfer) hold(p *sim.Proc) (done bool) {
	p.ArmWait(t.f.transferTime(t.n))
	t.phase = xferWire
	return false
}

// releasePorts frees both ports, source side first.
//
//simlint:hotpath
func (t *Transfer) releasePorts() {
	t.src.link.Release()
	if t.dst != t.src {
		t.dst.link.Release()
	}
}

// Abort is the kill guard: deferred by whoever parks on the transfer, it
// releases the ports the script holds at the instant its process is
// unwound, each exactly once. After a completed operation it does nothing.
func (t *Transfer) Abort() {
	switch t.phase {
	case xferPort2:
		t.first.Release()
	case xferWire:
		t.releasePorts()
	}
	t.phase = xferIdle
}

// complete is the last leg: the hardware ack has arrived. A message lands
// in the target's inbox; an RDMA operation goes through the target's ATT
// with no target CPU involved — when Err is nil a write is in the target
// device with a correct CRC (the §4.1 persistence contract) and a read has
// filled buf.
//
//simlint:hotpath
func (t *Transfer) complete() (done bool) {
	f, src, dst, n := t.f, t.src, t.dst, t.n
	t.phase = xferIdle
	if !t.rdma {
		src.BytesOut += int64(n)
		dst.BytesIn += int64(n)
		dst.MsgsSeen++
		t.record()
		m := f.newMessage()
		m.From = src.id
		m.Payload = t.payload
		t.payload = nil
		// Endpoint inboxes are unbounded: the message is never refused.
		dst.Inbox.TrySend(m)
		return true
	}
	e, err := dst.lookup(t.nva, n)
	if err == nil && !e.perm.allows(src.id, t.write) {
		err = ErrAccessDenied
	}
	if err == nil {
		off := e.offset + int64(t.nva-e.base)
		if t.write {
			err = e.win.WriteAt(off, t.data)
		} else {
			err = e.win.ReadAt(off, t.buf)
		}
	}
	t.data, t.buf = nil, nil
	if err != nil {
		t.err = err
		return true
	}
	if t.write {
		src.BytesOut += int64(n)
		dst.BytesIn += int64(n)
	} else {
		dst.BytesOut += int64(n)
		src.BytesIn += int64(n)
	}
	dst.OpsServed++
	t.record()
	return true
}

//simlint:hotpath
func (t *Transfer) record() {
	f := t.f
	f.mTransfer.Record(f.eng.Now() - t.start)
	f.mOps.Inc()
	f.mBytes.Add(int64(t.n))
}

// BeginSend starts a message of wire size sz from from to to's Inbox on
// the caller's own Transfer and arms its first leg for p, which is running
// or inside its step function. It reports true if the send is already over
// with nothing to wait for; otherwise p's wake-ups go to t.Step until that
// reports true.
//
//simlint:hotpath
func (f *Fabric) BeginSend(t *Transfer, p *sim.Proc, from, to EndpointID, sz int, payload interface{}) (done bool) {
	if sz <= 0 {
		sz = 64 // minimum control packet
	}
	t.rdma, t.n, t.payload = false, sz, payload
	return t.begin(p, f, from, to)
}

// newTransfer takes a Transfer from the free list.
//
//simlint:hotpath
func (f *Fabric) newTransfer() *Transfer {
	if n := len(f.xferfree); n > 0 {
		t := f.xferfree[n-1]
		f.xferfree[n-1] = nil
		f.xferfree = f.xferfree[:n-1]
		return t
	}
	return &Transfer{}
}

// freeTransfer aborts whatever t still holds and recycles it.
//
//simlint:hotpath
func (f *Fabric) freeTransfer(t *Transfer) {
	t.Abort()
	*t = Transfer{}
	f.xferfree = append(f.xferfree, t)
}

// park parks p on the pooled transfer t until the operation is over — at
// once, if its begin said so — and returns the outcome. The deferred guard
// frees the ports if p is killed mid-way.
//
//simlint:hotpath
func (f *Fabric) park(p *sim.Proc, t *Transfer, done bool) error {
	defer f.freeTransfer(t)
	if !done {
		p.ParkScript(t)
	}
	return t.err
}

// beginRDMA starts one one-sided operation from from against target to on
// the Transfer t — a write of data, or a read into buf — and arms its first
// leg for p.
//
//simlint:hotpath
func (f *Fabric) beginRDMA(t *Transfer, p *sim.Proc, from, to EndpointID, nva uint32, data, buf []byte, write bool) (done bool) {
	t.rdma, t.write, t.nva, t.data, t.buf = true, write, nva, data, buf
	t.n = len(buf)
	if write {
		t.n = len(data)
	}
	return t.begin(p, f, from, to)
}

// BeginRDMAWrite starts a one-sided write of data into target to at network
// virtual address nva on the caller's own Transfer, as BeginSend starts a
// message: it reports true if the write is already over, and otherwise p's
// wake-ups go to t.Step until that reports true. On a nil Err the bytes are
// in the target device.
//
//simlint:hotpath
func (f *Fabric) BeginRDMAWrite(t *Transfer, p *sim.Proc, from, to EndpointID, nva uint32, data []byte) (done bool) {
	return f.beginRDMA(t, p, from, to, nva, data, nil, true)
}

// rdma performs one one-sided operation on a pooled Transfer.
//
//simlint:hotpath
func (f *Fabric) rdma(p *sim.Proc, from, to EndpointID, nva uint32, data, buf []byte, write bool) error {
	t := f.newTransfer()
	return f.park(p, t, f.beginRDMA(t, p, from, to, nva, data, buf, write))
}

// RDMAWrite synchronously writes data into target to at network virtual
// address nva. On nil return the bytes are in the target device.
func (f *Fabric) RDMAWrite(p *sim.Proc, from, to EndpointID, nva uint32, data []byte) error {
	return f.rdma(p, from, to, nva, data, nil, true)
}

// RDMARead synchronously fills buf from target to at network virtual
// address nva.
func (f *Fabric) RDMARead(p *sim.Proc, from, to EndpointID, nva uint32, buf []byte) error {
	return f.rdma(p, from, to, nva, nil, buf, false)
}

// Send delivers payload to target to's Inbox as a fabric message. The send
// is reliable while the target is up; against a down target it returns
// ErrEndpointDown after the timeout. Message size sz models the payload's
// wire footprint for bandwidth accounting.
//
//simlint:hotpath
func (f *Fabric) Send(p *sim.Proc, from, to EndpointID, sz int, payload interface{}) error {
	t := f.newTransfer()
	return f.park(p, t, f.BeginSend(t, p, from, to, sz, payload))
}

// ByteWindow is the trivial Window over a byte slice, used by devices that
// expose plain RAM and by tests.
type ByteWindow []byte

// WriteAt implements Window.
func (w ByteWindow) WriteAt(off int64, data []byte) error {
	copy(w[off:], data)
	return nil
}

// ReadAt implements Window.
func (w ByteWindow) ReadAt(off int64, buf []byte) error {
	copy(buf, w[off:])
	return nil
}

// Len implements Window.
func (w ByteWindow) Len() int64 { return int64(len(w)) }
