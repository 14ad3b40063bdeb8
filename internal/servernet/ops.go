package servernet

import "persistmem/internal/sim"

// transferTime returns the fabric time for moving n bytes: packetization
// overheads plus serialization at link bandwidth plus one wire traversal
// each way (request and hardware ack).
func (f *Fabric) transferTime(n int) sim.Time {
	packets := (n + f.cfg.PacketBytes - 1) / f.cfg.PacketBytes
	if packets == 0 {
		packets = 1
	}
	ser := sim.Time(int64(n) * int64(sim.Second) / f.cfg.BytesPerSecond)
	return sim.Time(packets)*f.cfg.PerPacketOverhead + ser + 2*f.cfg.WireLatency
}

// acquirePorts takes both endpoints' port resources in canonical (id)
// order so that opposite-direction transfers cannot deadlock.
func (f *Fabric) acquirePorts(p *sim.Proc, a, b *Endpoint) {
	if a == b {
		a.link.Acquire(p)
		return
	}
	if a.id > b.id {
		a, b = b, a
	}
	a.link.Acquire(p)
	b.link.Acquire(p)
}

// releasePorts undoes acquirePorts.
func (f *Fabric) releasePorts(a, b *Endpoint) {
	if a == b {
		a.link.Release()
		return
	}
	a.link.Release()
	b.link.Release()
}

// crcFault draws a CRC fault for one operation.
func (f *Fabric) crcFault() bool {
	return f.cfg.CRCErrorRate > 0 && f.rng.Float64() < f.cfg.CRCErrorRate
}

// releaseOnce releases the port pair unless *released is already set.
// Transfer paths call it inline on the normal path and defer it as a
// kill guard; using a flag pointer instead of a closure keeps the guard
// off the heap.
//
//simlint:hotpath
func (f *Fabric) releaseOnce(released *bool, a, b *Endpoint) {
	if !*released {
		*released = true
		f.releasePorts(a, b)
	}
}

// rdma performs one one-sided operation from initiator from against target
// to. For writes, data is stored through the target's ATT; for reads, buf
// is filled. Both complete synchronously in virtual time: when the call
// returns nil, the hardware ack has arrived (and for writes the data is in
// the target device with a correct CRC — the §4.1 persistence contract).
//
//simlint:hotpath
func (f *Fabric) rdma(p *sim.Proc, from, to EndpointID, nva uint32, data, buf []byte, write bool) error {
	src, dst := f.eps[from], f.eps[to]
	if src == nil || dst == nil {
		return ErrEndpointDown
	}
	n := len(data)
	if !write {
		n = len(buf)
	}
	if n == 0 {
		return ErrZeroLength
	}
	ostart := f.eng.Now()

	// Initiator software cost (user-mode verbs; no kernel transition).
	p.Wait(f.cfg.SoftwareLatency)

	if !src.up {
		return ErrEndpointDown
	}
	if _, ok := f.pickPath(); !ok {
		p.Wait(f.cfg.Timeout)
		return ErrNoPath
	}
	if !dst.up {
		// No ack ever arrives; the initiator times out.
		p.Wait(f.cfg.Timeout)
		return ErrEndpointDown
	}

	// Serialize through both ports for the transfer duration. The release
	// is guarded so a kill mid-transfer cannot leak the ports, while the
	// normal path still frees them before any failure-timeout wait.
	tt := f.transferTime(n)
	f.acquirePorts(p, src, dst)
	released := false
	defer f.releaseOnce(&released, src, dst)
	p.Wait(tt)
	// Sample target liveness again: it may have failed mid-transfer. A
	// single path failing mid-transfer is masked by the survivor, but if
	// both fabrics went down the hardware ack never arrives.
	downMid := !dst.up
	noPathMid := !f.pathUp[0] && !f.pathUp[1]
	f.releaseOnce(&released, src, dst)
	if downMid {
		p.Wait(f.cfg.Timeout)
		return ErrEndpointDown
	}
	if noPathMid {
		p.Wait(f.cfg.Timeout)
		return ErrNoPath
	}

	if f.crcFault() {
		return ErrCRC
	}

	if dst.service > 0 {
		p.Wait(dst.service)
	}

	e, err := dst.lookup(nva, n)
	if err != nil {
		return err
	}
	if !e.perm.allows(from, write) {
		return ErrAccessDenied
	}
	off := e.offset + int64(nva-e.base)
	if write {
		if err := e.win.WriteAt(off, data); err != nil {
			return err
		}
		src.BytesOut += int64(n)
		dst.BytesIn += int64(n)
	} else {
		if err := e.win.ReadAt(off, buf); err != nil {
			return err
		}
		dst.BytesOut += int64(n)
		src.BytesIn += int64(n)
	}
	dst.OpsServed++
	f.mTransfer.Record(f.eng.Now() - ostart)
	f.mOps.Inc()
	f.mBytes.Add(int64(n))
	return nil
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
	src, dst := f.eps[from], f.eps[to]
	if src == nil || dst == nil {
		return ErrEndpointDown
	}
	if sz <= 0 {
		sz = 64 // minimum control packet
	}
	ostart := f.eng.Now()
	p.Wait(f.cfg.SoftwareLatency)
	if !src.up {
		return ErrEndpointDown
	}
	if _, ok := f.pickPath(); !ok {
		p.Wait(f.cfg.Timeout)
		return ErrNoPath
	}
	if !dst.up {
		p.Wait(f.cfg.Timeout)
		return ErrEndpointDown
	}
	tt := f.transferTime(sz)
	f.acquirePorts(p, src, dst)
	released := false
	defer f.releaseOnce(&released, src, dst)
	p.Wait(tt)
	downMid := !dst.up
	noPathMid := !f.pathUp[0] && !f.pathUp[1]
	f.releaseOnce(&released, src, dst)
	if downMid {
		p.Wait(f.cfg.Timeout)
		return ErrEndpointDown
	}
	if noPathMid {
		p.Wait(f.cfg.Timeout)
		return ErrNoPath
	}
	if f.crcFault() {
		return ErrCRC
	}
	src.BytesOut += int64(sz)
	dst.BytesIn += int64(sz)
	dst.MsgsSeen++
	f.mTransfer.Record(f.eng.Now() - ostart)
	f.mOps.Inc()
	f.mBytes.Add(int64(sz))
	m := f.newMessage()
	m.From = from
	m.Payload = payload
	dst.Inbox.Send(p, m) //simlint:allow hotalloc -- *Message into interface{} is pointer-shaped: no box is allocated
	return nil
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
