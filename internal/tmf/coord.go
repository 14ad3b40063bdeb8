package tmf

import (
	"fmt"
	"sort"

	"persistmem/internal/adp"
	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/dp2"
	"persistmem/internal/metrics"
	"persistmem/internal/pmclient"
	"persistmem/internal/sim"
)

// coordPhase names the leg a coordinator's script is parked on: the one
// whose outcome it takes next.
type coordPhase uint8

const (
	cpIdle       coordPhase = iota // nothing in flight
	cpFlushSend                    // phase 1: a DP2's flush request going out
	cpFlushAwait                   // phase 1: a DP2's flush reply
	cpADPSend                      // phase 1: a non-master stream's flush request
	cpADPAwait                     // phase 1: its reply
	cpMaster                       // phase 2: the commit record in the master log
	cpTCB                          // the commit's control block
	cpEndSend                      // a DP2's end request going out
	cpEndAwait                     // its reply
	cpRbOf                         // rollback: asking a DP2 which ADP it audits to
	cpRbSend                       // rollback: an ADP's abort record
	cpAbortTCB                     // an abort's control block
	cpOutcome                      // the outcome checkpoint to the monitor's backup
)

// coordinator runs commits and aborts one at a time: a process the serve
// loop keeps and restarts for each request instead of spawning one, with its
// working set — completion signals, the request boxes it sends to DP2s and
// ADPs, and the per-commit ADP LSN table. If any call times out, a server
// may still reference one of the boxes, so a dirty coordinator is abandoned
// instead of going back to its pool; so is one whose process was killed.
//
// The request itself is a script (sim.Proc.ParkScript): the coordinator
// starts it, parks once, and the dispatcher walks its legs — the flush
// fan-out and awaits, the master commit record, the control block, the end
// fan-out and awaits, the rollback's legs, the outcome checkpoint — and the
// reply on whatever stack delivers each wake-up, in exactly the order and
// slots a coordinator calling them one by one would. It resumes only to go
// back to its pool.
type coordinator struct {
	t    *TMF
	pool *coordPool
	proc *cluster.Process

	// The request slot: commit or abort, the envelope to answer it on and
	// the incarnation's control-block region.
	commit *CommitReq
	abort  *AbortReq
	ev     cluster.Envelope
	tcb    *pmclient.Region

	sigs    []*sim.Signal
	freqs   []*dp2.FlushAuditReq
	ereqs   []*dp2.EndTxnReq
	flreqs  []*adp.FlushReq
	creq    adp.CommitReq
	adpLSNs map[string]audit.LSN
	adps    []string
	outbuf  []byte // reused outcome-record encode buffer
	tcbbuf  []byte // reused control-block entry encode buffer
	dirty   bool

	// The script: the leg in flight and where the request stands.
	phase   coordPhase
	leg     cluster.Leg
	tcbw    pmclient.WriteLeg
	txn     audit.TxnID
	dp2s    []string
	i       int   // the fan-out member the pending leg is for
	seq     int64 // the two-phase commit's sequence number, for the phase hook
	ending  bool  // the end fan-out tells a commit (not a rollback)
	rolling bool  // the end fan-out is a rollback's
	err     error // a commit's outcome, once decided
	seen    map[string]bool
	ofreq   *dp2.FlushAuditReq
	odl     *outcomeDelta //simlint:boxowner -- the coordinator owns the outcome box until the backup acknowledges it
}

//simlint:hotpath
func (c *coordinator) flushReq(i int) *dp2.FlushAuditReq {
	for len(c.freqs) <= i {
		c.freqs = append(c.freqs, new(dp2.FlushAuditReq))
	}
	return c.freqs[i]
}

//simlint:hotpath
func (c *coordinator) endReq(i int) *dp2.EndTxnReq {
	for len(c.ereqs) <= i {
		c.ereqs = append(c.ereqs, new(dp2.EndTxnReq))
	}
	return c.ereqs[i]
}

//simlint:hotpath
func (c *coordinator) adpFlushReq(i int) *adp.FlushReq {
	for len(c.flreqs) <= i {
		c.flreqs = append(c.flreqs, new(adp.FlushReq))
	}
	return c.flreqs[i]
}

// sortedADPs lists the LSN table's streams in name order (deterministic
// message order), built in the coordinator's reused slice.
//
//simlint:hotpath
func (c *coordinator) sortedADPs() []string {
	c.adps = c.adps[:0]
	//simlint:ordered -- collected into a slice and sorted below
	for k := range c.adpLSNs {
		c.adps = append(c.adps, k)
	}
	sort.Strings(c.adps)
	return c.adps
}

// run is a coordinator's body, bound once: it starts the request in its slot
// and parks on it until the reply (and the commit hook) are done, then goes
// back to its pool unless it is dirty or was killed. A kill unwinds it out of
// the park; the guard releases the leg in flight.
//
//simlint:hotpath
func (c *coordinator) run(p *cluster.Process) {
	defer c.abortLeg()
	if !c.start() {
		p.Sim().ParkScript(c)
	}
	c.commit, c.abort, c.ev, c.tcb = nil, nil, cluster.Envelope{}, nil
	c.dp2s, c.err = nil, nil
	if !c.dirty && !p.Sim().Killed() {
		c.pool.idle = append(c.pool.idle, c)
	}
}

// abortLeg is the kill guard: it releases the leg in flight.
func (c *coordinator) abortLeg() {
	c.leg.Abort()
	c.tcbw.Abort()
}

// start begins the request in the slot: a commit's phase 1, or an abort's
// rollback.
//
//simlint:hotpath
func (c *coordinator) start() (done bool) {
	t := c.t
	if req := c.commit; req != nil {
		c.txn, c.dp2s = req.Txn, req.DP2s
		t.txns.Record(uint64(req.Txn), metrics.MarkCoordStart, "", false, c.proc.Now())
		c.seq = 0
		if req.TwoPhase {
			t.twoPhaseSeq++
			c.seq = t.twoPhaseSeq
			t.firePhase(PhasePrepareStart, req.Txn, c.seq)
		}
		// Phase 1: gather and flush every involved audit stream; under the
		// cross-shard protocol every participant durably votes prepare here.
		c.sigs = c.sigs[:0]
		return c.flushSend(0)
	}
	c.txn, c.dp2s = c.abort.Txn, c.abort.DP2s
	return c.rollback()
}

// Step implements sim.Stepper: one wake-up of the leg in flight.
//
//simlint:hotpath
func (c *coordinator) Step(sp *sim.Proc) (done bool) {
	switch c.phase {
	case cpTCB, cpAbortTCB:
		if !c.tcbw.Step(sp) {
			return false
		}
	default:
		if !c.leg.Step(sp) {
			return false
		}
	}
	return c.after()
}

// then notes ph as the leg just armed for fan-out member i and, when it is
// already over, takes its outcome at once.
//
//simlint:hotpath
func (c *coordinator) then(ph coordPhase, i int, done bool) bool {
	c.phase, c.i = ph, i
	return done && c.after()
}

// after takes the outcome of the leg the phase names and goes on.
//
//simlint:hotpath
func (c *coordinator) after() (done bool) {
	leg := &c.leg
	switch c.phase {
	case cpFlushSend:
		if err := leg.Err(); err != nil {
			c.dirty = true
			return c.phase1Failed(err)
		}
		c.sigs = append(c.sigs, leg.Signal())
		return c.flushSend(c.i + 1)
	case cpFlushAwait:
		// The reply is the i-th request box itself, carrying the response.
		if err := leg.Err(); err != nil {
			c.dirty = true
			return c.phase1Failed(err)
		}
		resp := &c.freqs[c.i].Resp
		if resp.Err != nil {
			c.dirty = true
			return c.phase1Failed(resp.Err)
		}
		if resp.ADP != "" { // empty for a PMDirect DP2: its changes are already persistent
			if resp.LSN > c.adpLSNs[resp.ADP] {
				c.adpLSNs[resp.ADP] = resp.LSN
			} else if _, seen := c.adpLSNs[resp.ADP]; !seen {
				c.adpLSNs[resp.ADP] = resp.LSN
			}
		}
		return c.flushAwait(c.i + 1)
	case cpADPSend:
		if err := leg.Err(); err != nil {
			c.dirty = true
			return c.phase1Failed(err)
		}
		c.sigs = append(c.sigs, leg.Signal())
		return c.adpSend(c.i + 1)
	case cpADPAwait:
		if err := leg.Err(); err != nil {
			c.dirty = true
			return c.phase1Failed(err)
		}
		if rerr := c.flreqs[c.i].Resp.Err; rerr != nil {
			c.dirty = true
			return c.phase1Failed(rerr)
		}
		return c.adpAwait(c.i + 1)
	case cpMaster:
		if err := leg.Err(); err != nil {
			c.dirty = true // the master may still hold the request box
			//simlint:allow hotalloc -- commit-failure path, cold
			return c.commitFailed(fmt.Errorf("%w: master log: %v", ErrCommitFailed, err))
		}
		if rerr := c.creq.Resp.Err; rerr != nil {
			//simlint:allow hotalloc -- commit-failure path, cold
			return c.commitFailed(fmt.Errorf("%w: master log: %v", ErrCommitFailed, rerr))
		}
		return c.commitDurable()
	case cpTCB:
		// For PMDirect stores (no audit streams) the control block is the
		// commit point, so a failed write there fails the commit.
		if err := c.tcbWritten(); err != nil && len(c.adps) == 0 {
			//simlint:allow hotalloc -- commit-failure path, cold
			return c.commitFailed(fmt.Errorf("%w: control block: %v", ErrCommitFailed, err))
		}
		return c.tcbDone()
	case cpEndSend:
		// A send failure never reached an inbox; the box stays reusable.
		if leg.Err() == nil {
			c.sigs = append(c.sigs, leg.Signal())
		}
		return c.endSend(c.i + 1)
	case cpEndAwait:
		if leg.Err() != nil {
			c.dirty = true // the DP2 may still hold the request box
		}
		return c.endAwait(c.i + 1)
	case cpRbOf:
		// Failures are ignored — the DP2 may be mid-takeover, and abort
		// records are advisory.
		var name string
		if leg.Err() == nil {
			name = c.ofreq.Resp.ADP
		}
		c.ofreq = nil
		if name == "" || c.seen[name] {
			return c.rollbackADP(c.i + 1)
		}
		c.seen[name] = true
		//simlint:allow hotalloc -- rollback path, cold
		return c.then(cpRbSend, c.i, leg.Send(c.proc, name, 48, &adp.AbortReq{Txn: c.txn}))
	case cpRbSend:
		return c.rollbackADP(c.i + 1)
	case cpAbortTCB:
		c.tcbWritten()
		return c.decided()
	case cpOutcome:
		return c.reply()
	}
	panic("tmf: coordinator step with no leg pending")
}

// flushSend asks DP2 i onwards to push its pending audit (and, two-phase, to
// vote prepare); once every request is out, the replies are awaited.
//
//simlint:hotpath
func (c *coordinator) flushSend(i int) (done bool) {
	req := c.commit
	if i == len(c.dp2s) {
		clear(c.adpLSNs)
		return c.flushAwait(0)
	}
	r := c.flushReq(i)
	r.Txn = req.Txn
	r.Prepare = req.TwoPhase // always assigned: the box is recycled across commits
	return c.then(cpFlushSend, i, c.leg.CallAsync(c.proc, c.dp2s[i], 48, r))
}

// flushAwait collects DP2 i's flush reply onwards into c.adpLSNs; then each
// distinct non-master stream is flushed. The master stream's flush rides on
// the phase-2 commit record.
//
//simlint:hotpath
func (c *coordinator) flushAwait(i int) (done bool) {
	if i < len(c.sigs) {
		return c.then(cpFlushAwait, i, c.leg.AwaitReply(c.proc, c.sigs[i]))
	}
	if len(c.sortedADPs()) <= 1 {
		return c.flushed() // single stream: phase 2 flush covers it
	}
	c.sigs = c.sigs[:0]
	return c.adpSend(0)
}

// adpSend asks non-master stream i onwards to flush through its LSN.
//
//simlint:hotpath
func (c *coordinator) adpSend(i int) (done bool) {
	others := c.adps[1:]
	if i == len(others) {
		return c.adpAwait(0)
	}
	r := c.adpFlushReq(i)
	r.UpTo = c.adpLSNs[others[i]]
	return c.then(cpADPSend, i, c.leg.CallAsync(c.proc, others[i], 48, r))
}

//simlint:hotpath
func (c *coordinator) adpAwait(i int) (done bool) {
	if i == len(c.sigs) {
		return c.flushed()
	}
	return c.then(cpADPAwait, i, c.leg.AwaitReply(c.proc, c.sigs[i]))
}

// phase1Failed rolls the transaction back after a phase-1 failure. Any such
// failure has marked the coordinator dirty when requests may still be
// outstanding, so their boxes cannot be recycled.
func (c *coordinator) phase1Failed(err error) (done bool) {
	return c.commitFailed(fmt.Errorf("%w: %v", ErrCommitFailed, err))
}

// commitFailed rolls the transaction back and then reports err.
func (c *coordinator) commitFailed(err error) (done bool) {
	c.err = err
	return c.rollback()
}

// flushed continues once every data record is durable: phase 2, the commit
// record in the master log — an outcome record naming state and
// participants when two-phase.
//
//simlint:hotpath
func (c *coordinator) flushed() (done bool) {
	t, req := c.t, c.commit
	t.txns.Record(uint64(req.Txn), metrics.MarkDataFlushed, "", false, c.proc.Now())
	if req.TwoPhase {
		t.firePhase(PhasePrepared, req.Txn, c.seq)
	}
	adps := c.sortedADPs()
	if len(adps) == 0 {
		return c.commitDurable()
	}
	c.creq.Txn = req.Txn
	c.creq.Outcome = nil
	if req.TwoPhase {
		c.outbuf = AppendOutcome(c.outbuf[:0], TCBCommitted, req.DP2s)
		c.creq.Outcome = c.outbuf
	}
	return c.then(cpMaster, 0, c.leg.Call(c.proc, adps[0], 64+len(c.creq.Outcome), &c.creq))
}

// commitDurable writes the fine-grained outcome in PM, before externalizing
// the commit.
//
//simlint:hotpath
func (c *coordinator) commitDurable() (done bool) {
	c.t.txns.Record(uint64(c.txn), metrics.MarkCommitDurable, "", false, c.proc.Now())
	if c.tcb != nil {
		return c.writeTCB(cpTCB, TCBCommitted)
	}
	return c.tcbDone()
}

// tcbDone releases locks and retires the transaction at the DP2s.
//
//simlint:hotpath
func (c *coordinator) tcbDone() (done bool) {
	t, req := c.t, c.commit
	t.txns.Record(uint64(req.Txn), metrics.MarkTCBWritten, "", false, c.proc.Now())
	t.txns.Record(uint64(req.Txn), metrics.TxnOutcome, "", true, c.proc.Now())
	if req.TwoPhase {
		t.stats.TwoPhaseCommits++
		t.firePhase(PhaseOutcomeDurable, req.Txn, c.seq)
		t.firePhase(PhaseApplyStart, req.Txn, c.seq)
	}
	return c.endAll(true)
}

// endAll tells every DP2 the outcome and waits for lock release.
//
//simlint:hotpath
func (c *coordinator) endAll(commit bool) (done bool) {
	c.ending = commit
	c.sigs = c.sigs[:0]
	return c.endSend(0)
}

//simlint:hotpath
func (c *coordinator) endSend(i int) (done bool) {
	if i == len(c.dp2s) {
		return c.endAwait(0)
	}
	r := c.endReq(i)
	r.Txn, r.Commit = c.txn, c.ending
	return c.then(cpEndSend, i, c.leg.CallAsync(c.proc, c.dp2s[i], 48, r))
}

//simlint:hotpath
func (c *coordinator) endAwait(i int) (done bool) {
	if i < len(c.sigs) {
		return c.then(cpEndAwait, i, c.leg.AwaitReply(c.proc, c.sigs[i]))
	}
	if c.rolling {
		c.seen = map[string]bool{}
		return c.rollbackADP(0)
	}
	t, req := c.t, c.commit
	t.txns.Record(uint64(req.Txn), metrics.MarkLocksReleased, "", false, c.proc.Now())
	if req.TwoPhase {
		t.firePhase(PhaseDone, req.Txn, c.seq)
	}
	return c.decided()
}

// rollback undoes the transaction at every DP2 and writes abort records.
// Cold path: its own allocations are left alone.
func (c *coordinator) rollback() (done bool) {
	c.t.txns.Record(uint64(c.txn), metrics.TxnOutcome, "", false, c.proc.Now())
	c.rolling = true
	return c.endAll(false)
}

// rollbackADP asks DP2 i onwards which ADP it audits to (via a zero-flush)
// and sends each stream not yet told an abort record for the transaction.
func (c *coordinator) rollbackADP(i int) (done bool) {
	if i < len(c.dp2s) {
		c.ofreq = &dp2.FlushAuditReq{}
		return c.then(cpRbOf, i, c.leg.Call(c.proc, c.dp2s[i], 32, c.ofreq))
	}
	c.rolling, c.seen = false, nil
	if c.commit == nil && c.tcb != nil {
		return c.writeTCB(cpAbortTCB, TCBAborted)
	}
	return c.decided()
}

// decided counts the outcome and checkpoints it to the monitor's backup.
//
//simlint:hotpath
func (c *coordinator) decided() (done bool) {
	t := c.t
	commit := c.commit != nil && c.err == nil
	if commit {
		t.stats.Commits++
	} else {
		t.stats.Aborts++
	}
	if n := len(t.outfree); n > 0 {
		c.odl = t.outfree[n-1]
		t.outfree = t.outfree[:n-1]
	} else {
		c.odl = new(outcomeDelta)
	}
	c.odl.txn, c.odl.commit = c.txn, commit
	return c.then(cpOutcome, 0, c.leg.Checkpoint(t.pair, c.proc, 24, c.odl))
}

// reply answers the request once its outcome is checkpointed, and runs the
// commit hook after a commit.
//
//simlint:hotpath
func (c *coordinator) reply() (done bool) {
	t := c.t
	if c.leg.Err() == nil {
		t.outfree = append(t.outfree, c.odl)
	}
	c.odl = nil
	c.phase = cpIdle
	if req := c.commit; req != nil {
		req.Resp = CommitResp{Err: c.err}
		c.ev.Reply(req)
		if c.err == nil && t.commitHook != nil {
			t.commitHook(t.stats.Commits)
		}
		return true
	}
	req := c.abort
	req.Resp = AbortResp{}
	c.ev.Reply(req)
	return true
}

// writeTCB writes the transaction's control block in state, the leg named
// ph; tcbWritten takes its outcome.
//
//simlint:hotpath
func (c *coordinator) writeTCB(ph coordPhase, state uint8) (done bool) {
	c.tcbbuf = AppendTCB(c.tcbbuf[:0], c.txn, state)
	return c.then(ph, 0, c.tcbw.Write(c.tcb, c.proc, tcbOffset(c.tcb, c.txn), c.tcbbuf))
}

//simlint:hotpath
func (c *coordinator) tcbWritten() error {
	err := c.tcbw.Err()
	if err == nil {
		c.t.stats.TCBWrites++
	}
	return err
}
