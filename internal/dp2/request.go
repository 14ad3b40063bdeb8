package dp2

import (
	"errors"
	"fmt"

	"persistmem/internal/adp"
	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/locks"
	"persistmem/internal/metrics"
	"persistmem/internal/pmclient"
	"persistmem/internal/sim"
)

// reqPhase names the leg a request is parked on: the one whose outcome the
// request takes next.
type reqPhase uint8

const (
	rqIdle        reqPhase = iota // no request in flight
	rqInsertCPU                   // an insert's CPU cost
	rqReadCPU                     // a read's CPU cost
	rqEndCPU                      // an end's CPU cost
	rqInsertLog                   // PMDirect: the insert's after-image to the PM log
	rqInsertAudit                 // Classic: a full audit buffer to the ADP
	rqInsertCkpt                  // the insert's checkpoint (a delta, or PMDirect's LSN)
	rqPrepareLog                  // PMDirect: the prepare record to the PM log
	rqPrepareCkpt                 // its LSN checkpoint
	rqFlushAudit                  // Classic: the flush's audit to the ADP
	rqEndLog                      // PMDirect: the End record to the PM log
	rqEndCkpt                     // the end's checkpoint (a delta, or PMDirect's LSN)
)

// request is the DP2's request path as a script: each request is a phase
// machine over legs (a CPU cost, a call to the ADP or the backup, a PM log
// write), walked by the dispatcher on whatever stack delivers its wake-ups.
// The primary keeps one for its life and serves its inbox with it, one
// request at a time, exactly as a loop of blocking calls would — the same
// events in the same slots — without ever being switched into. It is the
// only writer of the partition's image, its audit buffer and its PM log: a
// request that waits on a row lock comes back to it (handBack) to be
// applied.
//
// Each leg is armed by then, which takes the outcome at once when the leg is
// already over; the phase says which leg is pending, and after takes its
// outcome and arms the next one.
type request struct {
	d  *DP2
	p  *cluster.Process
	st *dpState
	lm *locks.Manager

	// auditBuf holds encoded audit not yet sent to the ADP (Classic mode).
	// It is not checkpointed: commit reaches it via FlushAudit, and an
	// un-committed transaction whose DP2 died is aborted by the monitor, so
	// its audit may be lost harmlessly.
	auditBuf []byte

	phase reqPhase
	leg   cluster.Leg
	pmw   *pmclient.WriteLeg // PMDirect's log writes; nil in Classic mode

	// The request in flight: its envelope and its box, one of four kinds.
	ev  cluster.Envelope
	ins *InsertReq
	rd  *ReadReq
	fl  *FlushAuditReq
	end *EndTxnReq

	istart, cstart sim.Time
	delta          insertDelta
	stamp          uint32 // the inserted row's, to roll back a failed log write
	enc            []byte // the record being written to the PM log, reused

	// The checkpoint box in flight, recycled once the backup absorbed it.
	idl *insertDelta //simlint:boxowner -- the request owns its checkpoint box until the backup acknowledges it
	edl *endDelta    //simlint:boxowner -- the request owns its checkpoint box until the backup acknowledges it
	ldl *lsnDelta    //simlint:boxowner -- the request owns its checkpoint box until the backup acknowledges it

	// The audit send in flight: its request box.
	areq   *adp.AppendReq //simlint:boxowner -- the request owns the append box until the ADP replies
	astart sim.Time
}

// Handle implements sim.Server: start one request. A request is its sender's
// box, recycled only after the reply, so reading it here — and writing the
// response into it — is safe.
//
//simlint:hotpath
func (r *request) Handle(_ *sim.Proc, v interface{}) (done bool) {
	if hb, ok := v.(*handBack); ok {
		return r.handedBack(hb)
	}
	ev := r.p.Open(v)
	r.ev = ev
	switch req := ev.Payload.(type) {
	case *InsertReq:
		r.ins = req
		return r.then(rqInsertCPU, r.leg.Compute(r.p, insertCPU))
	case *ReadReq:
		r.rd = req
		return r.then(rqReadCPU, r.leg.Compute(r.p, readCPU))
	case *FlushAuditReq:
		r.fl = req
		return r.flushAudit()
	case *EndTxnReq:
		r.end = req
		return r.then(rqEndCPU, r.leg.Compute(r.p, endCPU))
	case *StateReq:
		req.Resp = r.d.stats
		req.Resp.CacheRows = r.st.tree.Len()
		req.Resp.DirtyBytes = r.st.dirty
		ev.Reply(req)
		return r.finish()
	default:
		// Every sender is in this repository: a programming error.
		//simlint:allow hotalloc -- a request no sender builds, fatal
		panic(fmt.Sprintf("dp2: unknown request %T", req))
	}
}

// Step implements sim.Stepper: one wake-up of the leg in flight.
//
//simlint:hotpath
func (r *request) Step(sp *sim.Proc) (done bool) {
	switch r.phase {
	case rqInsertLog, rqPrepareLog, rqEndLog:
		if !r.pmw.Step(sp) {
			return false
		}
	default:
		if !r.leg.Step(sp) {
			return false
		}
	}
	return r.after()
}

// then notes ph as the leg just armed and, when it is already over, takes
// its outcome at once.
//
//simlint:hotpath
func (r *request) then(ph reqPhase, done bool) bool {
	r.phase = ph
	return done && r.after()
}

// after takes the outcome of the leg the phase names and goes on.
//
//simlint:hotpath
func (r *request) after() (done bool) {
	d, p, st := r.d, r.p, r.st
	switch r.phase {
	case rqInsertCPU:
		if r.lm.TryAcquire(r.ins.Key, r.ins.Txn, locks.Exclusive) {
			return r.insertTail()
		}
		return r.wait(r.ins.Key, r.ins.Txn, locks.Exclusive)
	case rqInsertLog:
		if err := r.logged(); err != nil {
			// Roll just this insert out of the cache, unless an abort already
			// did while the write was parked: the destager may have cleaned
			// it meanwhile, or another transaction reinserted its key.
			req := r.ins
			if row, ok := st.tree.Get(req.Key); ok && row.stamp == r.stamp {
				st.drop(req.Key, row)
				if u := st.undo[req.Txn]; len(u) > 0 {
					st.undo[req.Txn] = u[:len(u)-1]
				}
			}
			return r.replyInsert(err)
		}
		return r.checkpointLSN(rqInsertCkpt)
	case rqInsertAudit:
		r.auditSent()
		return r.checkpointInsert()
	case rqInsertCkpt:
		r.checkpointed()
		d.mInsert.Record(p.Now() - r.istart)
		return r.replyInsert(nil)
	case rqReadCPU:
		return r.read()
	case rqPrepareLog:
		if err := r.logged(); err != nil {
			return r.replyFlush(FlushAuditResp{Err: err})
		}
		return r.checkpointLSN(rqPrepareCkpt)
	case rqPrepareCkpt:
		r.checkpointed()
		return r.replyFlush(FlushAuditResp{})
	case rqFlushAudit:
		lsn, err := r.auditSent()
		return r.replyFlush(FlushAuditResp{ADP: d.cfg.ADPName, LSN: lsn, Err: err})
	case rqEndCPU:
		return r.endTxn()
	case rqEndLog:
		if r.logged() != nil {
			d.stats.EndRecordErrors++
		}
		return r.checkpointLSN(rqEndCkpt)
	case rqEndCkpt:
		r.checkpointed()
		r.ev.Reply(r.end)
		return r.finish()
	}
	panic("dp2: request step with no leg pending")
}

// finish ends the request in flight; the reply, if any, has gone.
//
//simlint:hotpath
func (r *request) finish() bool {
	r.phase = rqIdle
	r.ev = cluster.Envelope{}
	r.ins, r.rd, r.fl, r.end = nil, nil, nil, nil
	r.delta = insertDelta{} // holds the sender's body
	return true
}

// abort is the kill guard: it releases the leg in flight.
func (r *request) abort() {
	r.leg.Abort()
	if r.pmw != nil {
		r.pmw.Abort()
	}
}

// newRequest returns a request script for p, with a PM log writer in
// PMDirect mode.
func (d *DP2) newRequest(p *cluster.Process, st *dpState, lm *locks.Manager) *request {
	r := &request{d: d, p: p, st: st, lm: lm}
	if d.cfg.Mode == PMDirect {
		r.pmw = new(pmclient.WriteLeg)
	}
	return r
}

// handBack is a request that waited on its row lock, handed back to the
// primary that started the wait once the lock is granted.
type handBack struct {
	ev   cluster.Envelope
	ins  *InsertReq // the request: an insert or a read
	rd   *ReadReq
	key  uint64
	txn  audit.TxnID
	mode locks.Mode
}

// refuse answers the request with err.
func (hb *handBack) refuse(err error) {
	if hb.ins != nil {
		hb.ins.Resp = InsertResp{Err: err}
		hb.ev.Reply(hb.ins)
		return
	}
	hb.rd.Resp = ReadResp{Err: err}
	hb.ev.Reply(hb.rd)
}

// wait hands the request in flight to a lock waiter, a process that does
// nothing but wait for the row lock, so the primary keeps serving (the lock
// holder's EndTxn must get through). A timeout, or the withdrawal of the
// request when its own transaction ends first (locks.ErrTxnEnded), is the
// waiter's to reply; a grant it hands back into this incarnation's inbox,
// where handedBack takes it. A hand-back into a dead incarnation's inbox is
// dropped with it.
func (r *request) wait(key uint64, txn audit.TxnID, mode locks.Mode) (done bool) {
	d, lm, inbox := r.d, r.lm, r.p.Inbox()
	hb := &handBack{ev: r.ev, ins: r.ins, rd: r.rd, key: key, txn: txn, mode: mode}
	r.p.CPU().Spawn(d.waiterName, func(p *cluster.Process) {
		if err := lm.Acquire(p.Sim(), key, txn, mode, lockTimeout); err != nil {
			if errors.Is(err, locks.ErrLockTimeout) {
				d.stats.LockTimeouts++
			}
			hb.refuse(err) // timed out, or withdrawn: the transaction ended first
			return
		}
		inbox.TrySend(hb)
	})
	return r.finish()
}

// handedBack applies a request whose lock wait is over, unless its
// transaction no longer holds the lock — it ended while the grant was on its
// way — when it is refused instead.
func (r *request) handedBack(hb *handBack) (done bool) {
	if held, ok := r.lm.Holds(hb.key, hb.txn); !ok || held < hb.mode {
		hb.refuse(locks.ErrNotHeld)
		return true
	}
	r.ev, r.ins, r.rd = hb.ev, hb.ins, hb.rd
	if r.rd != nil {
		r.d.finishRead(r.st, r.ev, r.rd)
		return r.finish()
	}
	return r.insertTail()
}

// insertTail runs once the row lock is held: apply the insert, make it
// persistent (PMDirect) or buffer its audit (Classic), checkpoint, reply.
// State mutations are safe because the simulation is cooperatively
// scheduled.
//
//simlint:hotpath
func (r *request) insertTail() (done bool) {
	d, p, st, req := r.d, r.p, r.st, r.ins
	r.istart = p.Now()
	if !bodyFits(len(req.Body)) {
		//simlint:allow hotalloc -- an oversized body, cold
		return r.replyInsert(fmt.Errorf("%w: %s/%d key %d: %d bytes", ErrBodyTooLarge, d.cfg.File, d.cfg.Partition, req.Key, len(req.Body)))
	}
	if st.tree.Has(req.Key) {
		d.stats.DuplicateKeys++
		//simlint:allow hotalloc -- duplicate-key rejection, cold
		return r.replyInsert(fmt.Errorf("%w: %s/%d key %d", ErrDuplicateKey, d.cfg.File, d.cfg.Partition, req.Key))
	}
	r.delta = insertDelta{txn: req.Txn, key: req.Key, body: req.Body, blen: len(req.Body)}
	st.insert(r.delta, d.cfg.RetainData)
	r.stamp = st.stamp
	d.stats.Inserts++
	d.stats.InsertBytes += int64(len(req.Body))
	if d.wbKick != nil {
		d.wbKick.TrySend(nil) // wake the destager
	}

	// Generate the audit after-image. AppendRecord only reads the record, so
	// it stays on this frame's stack.
	rec := audit.Record{
		Type: audit.RecInsert, Txn: req.Txn,
		File: d.cfg.File, Partition: d.cfg.Partition,
		Key: req.Key, Body: req.Body,
	}
	if d.cfg.Mode == PMDirect {
		// §3.4: made persistent once, here, synchronously. No audit is
		// forwarded anywhere and the backup checkpoint is counters only.
		return r.logToPM(rqInsertLog, &rec)
	}
	r.auditBuf = audit.AppendRecord(r.auditBuf, &rec)
	if len(r.auditBuf) >= auditSendBytes {
		return r.sendAudit(rqInsertAudit)
	}
	return r.checkpointInsert()
}

// checkpointInsert checkpoints the insert before externalizing it (§1.3).
//
//simlint:hotpath
func (r *request) checkpointInsert() (done bool) {
	d := r.d
	r.cstart = r.p.Now()
	r.idl = d.newInsertDelta(r.delta)
	return r.then(rqInsertCkpt, r.leg.Checkpoint(d.pair, r.p, 48+r.delta.blen, r.idl))
}

//simlint:hotpath
func (r *request) replyInsert(err error) bool {
	r.ins.Resp = InsertResp{Err: err}
	r.ev.Reply(r.ins)
	return r.finish()
}

// read continues a read after its CPU cost: a browse or a lock that grants at
// once reads now; a conflict waits for the lock, as an insert's does.
func (r *request) read() (done bool) {
	req := r.rd
	if req.Txn != 0 && !r.lm.TryAcquire(req.Key, req.Txn, locks.Shared) {
		return r.wait(req.Key, req.Txn, locks.Shared)
	}
	r.d.finishRead(r.st, r.ev, req) // a browse takes no lock
	return r.finish()
}

// finishRead runs once the read may proceed (lock held, or a browse).
func (d *DP2) finishRead(st *dpState, ev cluster.Envelope, req *ReadReq) {
	r, ok := st.tree.Get(req.Key)
	if !ok {
		req.Resp = ReadResp{Err: fmt.Errorf("%w: key %d", ErrNotFound, req.Key)}
		ev.Reply(req)
		return
	}
	d.stats.Reads++
	req.Resp = ReadResp{Body: r.body()}
	ev.Reply(req)
}

// flushAudit serves a FlushAuditReq: push pending audit to the ADP and name
// the LSN the trail must reach for commit. A prepare vote rides the same
// flush: the prepare record is appended ahead of the send (Classic) or
// written straight to this DP2's PM log (PMDirect), so the reported LSN — or
// the synchronous PM write — covers it.
func (r *request) flushAudit() (done bool) {
	d, req := r.d, r.fl
	if req.Prepare {
		d.txns.Record(uint64(req.Txn), metrics.TxnPrepare, d.cfg.Name, false, r.p.Now())
		rec := audit.Record{
			Type: audit.RecPrepare, Txn: req.Txn,
			File: d.cfg.File, Partition: d.cfg.Partition,
		}
		if d.cfg.Mode == PMDirect {
			return r.logToPM(rqPrepareLog, &rec)
		}
		r.auditBuf = audit.AppendRecord(r.auditBuf, &rec)
	}
	if d.cfg.Mode == PMDirect {
		// Nothing to flush: every change is already persistent.
		return r.replyFlush(FlushAuditResp{})
	}
	return r.sendAudit(rqFlushAudit)
}

//simlint:hotpath
func (r *request) replyFlush(resp FlushAuditResp) bool {
	r.fl.Resp = resp
	r.ev.Reply(r.fl)
	return r.finish()
}

// endTxn finishes a transaction after the end's CPU cost: undo an abort,
// release the locks, note the outcome in the PM log (PMDirect) and
// checkpoint the end.
//
//simlint:hotpath
func (r *request) endTxn() (done bool) {
	d, p, st, req := r.d, r.p, r.st, r.end
	if !req.Commit {
		d.stats.Aborted += int64(len(st.undo[req.Txn]))
	}
	delta := endDelta{txn: req.Txn, commit: req.Commit}
	st.applyEnd(delta)
	d.txns.Record(uint64(req.Txn), metrics.TxnApply, d.cfg.Name, req.Commit, p.Now())
	r.lm.ReleaseAll(req.Txn)
	if d.cfg.Mode == PMDirect {
		// Note the local outcome in the PM log so a takeover's cache rebuild
		// replays aborts correctly. The byte cost is tiny.
		typ := audit.RecCommit
		if !req.Commit {
			typ = audit.RecAbort
		}
		rec := audit.Record{Type: typ, Txn: req.Txn}
		return r.logToPM(rqEndLog, &rec)
	}
	r.cstart = p.Now()
	r.edl = d.newEndDelta(delta)
	return r.then(rqEndCkpt, r.leg.Checkpoint(d.pair, p, 24, r.edl))
}

// sendAudit pushes the audit buffer to the ADP, the leg named ph; auditSent
// takes its outcome. An empty buffer sends nothing.
//
//simlint:hotpath
func (r *request) sendAudit(ph reqPhase) (done bool) {
	if len(r.auditBuf) == 0 {
		return r.then(ph, true)
	}
	r.astart = r.p.Now()
	r.areq = r.d.newAppendReq(r.auditBuf)
	return r.then(ph, r.leg.Call(r.p, r.d.cfg.ADPName, len(r.auditBuf), r.areq))
}

// auditSent takes the outcome of sendAudit: the LSN the trail must reach. A
// failed send leaves the audit buffered, so commit can retry after an ADP
// takeover.
//
//simlint:hotpath
func (r *request) auditSent() (audit.LSN, error) {
	d, areq := r.d, r.areq
	if areq == nil {
		return 0, nil // nothing was pending
	}
	r.areq = nil
	if err := r.leg.Err(); err != nil {
		// The request box may still sit in the ADP inbox — a late reply
		// would write into it — so it is not reused.
		return 0, err
	}
	// Reply received — the box itself, carrying the response: the ADP is
	// done with it.
	resp := areq.Resp
	*areq = adp.AppendReq{}
	d.appfree = append(d.appfree, areq)
	if resp.Err != nil {
		return 0, resp.Err
	}
	d.stats.AuditSends++
	d.stats.AuditBytes += int64(len(r.auditBuf))
	d.mAuditSend.Record(r.p.Now() - r.astart)
	// The ADP copied the bytes out before replying, so the capacity backs
	// the next batch.
	r.auditBuf = r.auditBuf[:0]
	return resp.End, nil
}

// checkpointLSN checkpoints a PMDirect counters-only delta, the leg named ph.
//
//simlint:hotpath
func (r *request) checkpointLSN(ph reqPhase) (done bool) {
	r.cstart = r.p.Now()
	r.ldl = r.d.newLSNDelta(lsnDelta{lsn: r.st.lsn})
	return r.then(ph, r.leg.Checkpoint(r.d.pair, r.p, 32, r.ldl))
}

// checkpointed takes a checkpoint's outcome, recycling its box once the
// backup (or the shadow fold) absorbed it.
//
//simlint:hotpath
func (r *request) checkpointed() {
	d, ok := r.d, r.leg.Err() == nil
	switch {
	case r.idl != nil:
		if ok {
			d.insfree = append(d.insfree, r.idl)
		}
		r.idl = nil
	case r.edl != nil:
		if ok {
			d.endfree = append(d.endfree, r.edl)
		}
		r.edl = nil
	case r.ldl != nil:
		if ok {
			d.lsnfree = append(d.lsnfree, r.ldl)
		}
		r.ldl = nil
	}
	d.mCheckpoint.Record(r.p.Now() - r.cstart)
}

// logToPM writes rec, encoded, into this DP2's PM log region at its LSN,
// wrapping at the ring boundary (PMDirect mode): the leg named ph, whose
// outcome logged takes.
//
//simlint:hotpath
func (r *request) logToPM(ph reqPhase, rec *audit.Record) (done bool) {
	r.enc = audit.AppendRecord(r.enc[:0], rec)
	return r.then(ph, r.pmw.WriteRing(r.d.pmlog, r.p, int64(r.st.lsn), r.enc))
}

// logged takes a PM log write's outcome: on success the LSN moves past the
// record.
//
//simlint:hotpath
func (r *request) logged() error {
	err := r.pmw.Err()
	if err == nil {
		n := len(r.enc)
		r.st.lsn += audit.LSN(n)
		r.d.stats.PMLogWrites++
		r.d.stats.PMLogBytes += int64(n)
	}
	return err
}
