// Package tmf implements the Transaction Monitor Facility: the component
// that "keeps track of transactions as they enter and leave the system"
// (§1.2), drives the commit protocol across the database writers and log
// writers, and notates transaction outcomes in the audit trail.
//
// Commit protocol (two phases across audit streams, one when a single
// stream is involved):
//
//  1. Every involved DP2 forwards its pending audit to its log writer and
//     reports the LSN its stream must be durable through; the TMF then
//     flushes every involved stream to that LSN. After this phase all of
//     the transaction's data records are durable.
//  2. The TMF writes the commit record to the transaction's master log
//     (the lowest-numbered involved stream) and waits for it to be
//     durable. That record is the commit point: recovery treats the
//     transaction as committed iff it is present.
//
// With disk-backed log writers each phase costs a synchronous disk flush
// — the paper's "completion time of at least one – and typically more
// than one – disk I/O ... included in the response time of every
// transaction" (§2). With PM-backed log writers both phases degenerate to
// fabric round trips.
//
// When a PM volume is configured for transaction control blocks, the TMF
// also records each outcome in persistent memory at a fine grain (§3.4),
// which lets restart recovery learn transaction outcomes without
// heuristically scanning audit trails — the short-MTTR claim.
package tmf

import (
	"errors"
	"fmt"

	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/metrics"
	"persistmem/internal/pmclient"
	"persistmem/internal/sim"
)

// TMF errors.
var (
	// ErrUnknownTxn means the transaction is not active.
	ErrUnknownTxn = errors.New("tmf: unknown transaction")
	// ErrCommitFailed means durability could not be achieved; the
	// transaction was aborted instead.
	ErrCommitFailed = errors.New("tmf: commit failed")
)

// Config describes the transaction monitor.
type Config struct {
	// Name is the service name (default "$TMF").
	Name string
	// PrimaryCPU and BackupCPU place the process pair.
	PrimaryCPU, BackupCPU int

	// TCBVolume optionally names a PM volume for fine-grained transaction
	// control blocks; empty disables them (disk-era behavior).
	TCBVolume string

	// Metrics optionally wires commit-path marks (and PM write spans for
	// the TCB region) into a store-wide registry. Nil disables all
	// recording at the cost of nil tests.
	Metrics *metrics.Registry
}

// TCB entry layout: see AppendTCB.
const TCBEntrySize = 24

// Transaction outcomes recorded in control blocks.
const (
	TCBActive    uint8 = 1
	TCBCommitted uint8 = 2
	TCBAborted   uint8 = 3
)

// TCBRegionName is the region the TMF uses within its PM volume.
const TCBRegionName = "tmf-tcb"

// TCBRegionSize sizes the control-block region: 2 730 slots, for ~2 700
// concurrent transactions. Recovery reads the table in full, so it stays
// small by design.
const TCBRegionSize = 64 << 10

// requestCPU is the monitor's CPU cost per request.
const requestCPU = 15 * sim.Microsecond

// protocol messages
//
// A message is a box: it is sent as a pointer, its sender owns it from the
// send to the reply, the monitor writes the response into its Resp field and
// replies with the box itself. A box whose call failed or timed out is never
// reused, so a late reply writes only into a box nobody reads.
type (
	// BeginReq starts a transaction.
	BeginReq struct {
		Resp BeginResp
	}
	// BeginResp returns the new transaction id.
	BeginResp struct {
		Txn audit.TxnID
		Err error
	}
	// CommitReq commits a transaction that touched the named DP2s.
	// TwoPhase selects the cross-shard outcome-record protocol: every
	// participant durably writes a prepare record in phase 1, and phase
	// 2's master-log record becomes an outcome record naming the decided
	// state and full participant list, from which recovery resolves
	// in-doubt participants (prepared, no outcome ⇒ presumed abort).
	CommitReq struct {
		Txn      audit.TxnID
		DP2s     []string
		TwoPhase bool
		Resp     CommitResp
	}
	// CommitResp reports the outcome; on error the transaction aborted.
	CommitResp struct {
		Err error
	}
	// AbortReq rolls back a transaction at the named DP2s.
	AbortReq struct {
		Txn  audit.TxnID
		DP2s []string
		Resp AbortResp
	}
	// AbortResp acknowledges the rollback.
	AbortResp struct {
		Err error
	}
	// StateReq asks for a Stats snapshot.
	StateReq struct {
		Resp Stats
	}
)

// Stats describes monitor activity.
type Stats struct {
	Begins, Commits, Aborts int64
	ActiveTxns              int
	TCBWrites               int64
	// TwoPhaseCommits counts commits coordinated under the cross-shard
	// outcome-record protocol.
	TwoPhaseCommits int64
	// RegionErr is why the latest incarnation could not open the control
	// block region, so that it serves without TCBs; nil otherwise.
	RegionErr error
}

// CommitPhase names the observable windows of a two-phase commit, for
// phase-precise fault injection.
type CommitPhase uint8

// Two-phase commit windows, in protocol order.
const (
	// PhasePrepareStart fires before any participant is asked to prepare.
	PhasePrepareStart CommitPhase = iota + 1
	// PhasePrepared fires once every participant's prepare is durable —
	// the in-doubt window opens here.
	PhasePrepared
	// PhaseOutcomeDurable fires once the outcome record is durable — the
	// commit point; the in-doubt window closes here.
	PhaseOutcomeDurable
	// PhaseApplyStart fires before participants are told the outcome.
	PhaseApplyStart
	// PhaseDone fires after every participant applied the outcome.
	PhaseDone
)

// String names the phase for fault plans and matrix tables.
func (ph CommitPhase) String() string {
	switch ph {
	case PhasePrepareStart:
		return "prepare-start"
	case PhasePrepared:
		return "prepared"
	case PhaseOutcomeDurable:
		return "outcome-durable"
	case PhaseApplyStart:
		return "apply-start"
	case PhaseDone:
		return "done"
	default:
		return fmt.Sprintf("phase(%d)", int(ph))
	}
}

// checkpoint deltas
type beginDelta struct{ txn audit.TxnID }
type outcomeDelta struct {
	txn    audit.TxnID
	commit bool
}

// tmfState is the monitor's image, mirrored at the backup.
type tmfState struct {
	nextTxn audit.TxnID
	active  map[audit.TxnID]bool
}

func newState() *tmfState {
	return &tmfState{nextTxn: 1, active: make(map[audit.TxnID]bool)}
}

// TMF is a running transaction monitor pair.
type TMF struct {
	cl   *cluster.Cluster
	cfg  Config
	pair *cluster.Pair

	stats Stats

	// commitHook, when set, observes each successful commit with the
	// cumulative commit count, after the commit record is durable and the
	// client's reply has been sent. Fault-injection plans use it for
	// "after the Nth commit" triggers. The hook must not block.
	commitHook func(total int64)

	// phaseHook, when set, observes each two-phase commit's protocol
	// windows with the 1-based sequence number of that two-phase commit.
	// Fault-injection plans use it for "inside the Nth cross-shard
	// commit's prepare/pre-outcome/apply window" triggers. The hook must
	// not block.
	phaseHook func(phase CommitPhase, txn audit.TxnID, seq int64)
	// twoPhaseSeq numbers two-phase commit attempts for the phase hook.
	twoPhaseSeq int64

	// The delta boxes are recycled once CheckpointFrom returns nil (absorbed
	// by then).
	begfree []*beginDelta   //simlint:box -- begin-delta pool
	outfree []*outcomeDelta //simlint:box -- outcome-delta pool

	// pool is the serving incarnation's idle coordinators, and ncoord counts
	// the coordinators every incarnation has spawned, to name them.
	pool   *coordPool
	ncoord int

	// txns is the registry's per-transaction stream: commit-path marks and
	// protocol events (nil when unmetered); mPM the control-block region's
	// write spans.
	txns *metrics.TxnStream
	mPM  *metrics.PMSpans
}

// coordPool holds one serve incarnation's finished coordinators. They were
// all spawned on that incarnation's CPU, and a takeover's new primary starts
// an empty pool of its own, so a pooled coordinator is always restarted on
// the CPU of the serve loop that hands it a request.
type coordPool struct {
	idle []*coordinator
}

// startCoord hands a commit or an abort (the other is nil) to an idle
// coordinator of pool and restarts it, or spawns a new one on cpu when none
// is idle. Either way the process's start event goes where a spawn's would.
//
//simlint:hotpath
func (t *TMF) startCoord(cpu *cluster.CPU, pool *coordPool, tcb *pmclient.Region, ev cluster.Envelope, commit *CommitReq, abort *AbortReq) {
	n := len(pool.idle)
	if n == 0 {
		c := &coordinator{t: t, pool: pool, commit: commit, abort: abort, ev: ev, tcb: tcb, adpLSNs: make(map[string]audit.LSN)}
		t.ncoord++
		//simlint:allow hotalloc -- pool miss: the name lives as long as the coordinator
		c.proc = cpu.Spawn(fmt.Sprintf("%s-coord-%d", t.cfg.Name, t.ncoord), c.run)
		return
	}
	c := pool.idle[n-1]
	pool.idle[n-1] = nil
	pool.idle = pool.idle[:n-1]
	c.commit, c.abort, c.ev, c.tcb = commit, abort, ev, tcb
	c.proc.Restart()
}

//simlint:hotpath
func (t *TMF) checkpointBegin(p *cluster.Process, txn audit.TxnID) {
	var dl *beginDelta
	if n := len(t.begfree); n > 0 {
		dl = t.begfree[n-1]
		t.begfree = t.begfree[:n-1]
	} else {
		dl = new(beginDelta)
	}
	dl.txn = txn
	if t.pair.CheckpointFrom(p, 16, dl) == nil {
		t.begfree = append(t.begfree, dl)
	}
}

// Start launches the transaction monitor process pair.
func Start(cl *cluster.Cluster, cfg Config) *TMF {
	if cfg.Name == "" {
		cfg.Name = "$TMF"
	}
	t := &TMF{cl: cl, cfg: cfg}
	if cfg.Metrics != nil {
		t.txns = cfg.Metrics.Commit
		t.mPM = cfg.Metrics.PM
	}
	t.pair = cl.StartPairAbsorb(cfg.Name, cfg.PrimaryCPU, cfg.BackupCPU, t.serve, t.absorb)
	return t
}

// Name returns the monitor's service name.
func (t *TMF) Name() string { return t.cfg.Name }

// Pair returns the process pair, for fault injection.
func (t *TMF) Pair() *cluster.Pair { return t.pair }

// Stats returns a snapshot of activity counters.
func (t *TMF) Stats() Stats { return t.stats }

// SetCommitHook installs fn as the commit observer (nil removes it). See
// the commitHook field for the contract.
func (t *TMF) SetCommitHook(fn func(total int64)) { t.commitHook = fn }

// SetPhaseHook installs fn as the two-phase window observer (nil removes
// it). See the phaseHook field for the contract.
func (t *TMF) SetPhaseHook(fn func(phase CommitPhase, txn audit.TxnID, seq int64)) {
	t.phaseHook = fn
}

// Stop shuts the monitor down.
func (t *TMF) Stop() { t.pair.Stop() }

func (t *TMF) absorb(cur, delta interface{}) interface{} {
	st, _ := cur.(*tmfState)
	if st == nil {
		st = newState()
	}
	switch d := delta.(type) {
	case *beginDelta:
		st.active[d.txn] = true
		if d.txn >= st.nextTxn {
			st.nextTxn = d.txn + 1
		}
	case *outcomeDelta:
		delete(st.active, d.txn)
	case *tmfState:
		st = d
	}
	return st
}

func (t *TMF) serve(ctx *cluster.PairCtx) {
	st := newState()
	if ctx.Restored != nil {
		st = ctx.Restored.(*tmfState)
	}

	var tcb *pmclient.Region
	if t.cfg.TCBVolume != "" {
		// A region that does not open leaves tcb nil: the monitor serves
		// without control blocks and says why in its Stats.
		var err error
		tcb, err = pmclient.Attach(t.cl, t.cfg.TCBVolume).OpenOrCreate(ctx.Process, TCBRegionName, TCBRegionSize, t.mPM)
		t.stats.RegionErr = err
	}

	// tcbbuf holds the serve loop's own control-block entries (the Active
	// mark at begin); coordinators encode into their own buffers.
	var tcbbuf []byte

	pool := &coordPool{}
	t.pool = pool

	for {
		ev := ctx.Recv()
		ctx.Compute(requestCPU)
		switch req := ev.Payload.(type) {
		case *BeginReq:
			txn := st.nextTxn
			st.nextTxn++
			st.active[txn] = true
			t.stats.Begins++
			t.checkpointBegin(ctx.Process, txn)
			if tcb != nil {
				t.writeTCB(ctx.Process, tcb, &tcbbuf, txn, TCBActive)
			}
			t.txns.Record(uint64(txn), metrics.TxnBegin, "", false, ctx.Process.Now())
			req.Resp = BeginResp{Txn: txn}
			ev.Reply(req)
		case *CommitReq:
			t.handleCommit(ctx, st, pool, tcb, ev, req)
		case *AbortReq:
			t.handleAbort(ctx, st, pool, tcb, ev, req)
		case *StateReq:
			req.Resp = t.stats
			req.Resp.ActiveTxns = len(st.active)
			ev.Reply(req)
		default:
			// Every sender is in this repository: a programming error.
			panic(fmt.Sprintf("tmf: unknown request %T", req))
		}
	}
}

// handleCommit validates a commit request and hands it to a coordinator
// process so concurrent transactions pipeline through the monitor (and
// group-commit at the ADPs).
func (t *TMF) handleCommit(ctx *cluster.PairCtx, st *tmfState, pool *coordPool, tcb *pmclient.Region, ev cluster.Envelope, req *CommitReq) {
	if !st.active[req.Txn] {
		req.Resp = CommitResp{Err: fmt.Errorf("%w: %d", ErrUnknownTxn, req.Txn)}
		ev.Reply(req)
		return
	}
	delete(st.active, req.Txn)
	t.txns.Record(uint64(req.Txn), metrics.MarkMonitorRecv, "", false, ctx.Process.Now())
	t.startCoord(ctx.CPU(), pool, tcb, ev, req, nil)
}

// handleAbort is handleCommit's rollback twin.
func (t *TMF) handleAbort(ctx *cluster.PairCtx, st *tmfState, pool *coordPool, tcb *pmclient.Region, ev cluster.Envelope, req *AbortReq) {
	if !st.active[req.Txn] {
		req.Resp = AbortResp{Err: fmt.Errorf("%w: %d", ErrUnknownTxn, req.Txn)}
		ev.Reply(req)
		return
	}
	delete(st.active, req.Txn)
	t.startCoord(ctx.CPU(), pool, tcb, ev, nil, req)
}

// firePhase invokes the phase hook if one is installed.
//
//simlint:hotpath
func (t *TMF) firePhase(phase CommitPhase, txn audit.TxnID, seq int64) {
	if t.phaseHook != nil {
		t.phaseHook(phase, txn, seq)
	}
}

// writeTCB records a transaction outcome in the PM control-block region,
// encoding the entry into the writer's own buffer: the region write blocks,
// so concurrent writers must not share one.
func (t *TMF) writeTCB(p *cluster.Process, tcb *pmclient.Region, buf *[]byte, txn audit.TxnID, state uint8) error {
	*buf = AppendTCB((*buf)[:0], txn, state)
	if err := tcb.Write(p, tcbOffset(tcb, txn), *buf); err != nil {
		return err
	}
	t.stats.TCBWrites++
	return nil
}

// tcbOffset is where txn's control block lives in the region: its slot is
// the transaction id modulo the slot count.
//
//simlint:hotpath
func tcbOffset(tcb *pmclient.Region, txn audit.TxnID) int64 {
	slots := tcb.Size() / TCBEntrySize
	return int64(uint64(txn)%uint64(slots)) * TCBEntrySize
}
