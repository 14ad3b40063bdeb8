package metrics

import (
	"fmt"

	"persistmem/internal/sim"
)

// TxnKind names one point in a transaction's life. The client session,
// the transaction monitor and the DP2s each file every point they reach
// with one TxnStream.Record call; the stream folds it into three views
// (the ledger, the commit-path ladder and the retained protocol events).
//
// The kinds are in path order. The first eleven are the commit ladder's
// *marks* — virtual timestamps at fixed points between the client's Begin
// call and the commit reply landing back at the client. Phase k of a
// transaction is the interval from mark k to mark k+1, so the phase
// durations telescope: their sum is exactly the client-visible
// begin→commit interval, with no gaps and no overlaps, by construction.
// That exact-tiling property is what lets the decomposition table claim
// to *explain* commit latency rather than merely sample parts of it.
// Then come the client's two other endings, then the four protocol events
// the offline atomicity checker (internal/consistency) reads.
//
// The client session and the transaction monitor both run on the same
// simulation engine (one goroutine), so a single stream per registry is
// safe without locking.
type TxnKind uint8

// Transaction points, in path order.
const (
	// MarkBeginCall: client enters Session.Begin (timestamp captured
	// before the Begin RPC, attributed once the txn id is known). The only
	// kind that opens a ladder table; it counts the transaction begun.
	MarkBeginCall TxnKind = iota
	// MarkBeginDone: Begin RPC returned; the transaction exists.
	MarkBeginDone
	// MarkCommitCall: client enters Txn.Commit.
	MarkCommitCall
	// MarkCommitSend: outstanding async inserts drained; the commit
	// request is about to be sent to the transaction monitor.
	MarkCommitSend
	// MarkMonitorRecv: transaction monitor dequeued the commit request.
	MarkMonitorRecv
	// MarkCoordStart: commit coordinator process started.
	MarkCoordStart
	// MarkDataFlushed: phase 1 done — every involved DP2 has pushed its
	// audit tail and every non-master log stream is durable.
	MarkDataFlushed
	// MarkCommitDurable: phase 2 done — the commit record is durable on
	// the master log stream (or trivially, when no log writers are
	// involved).
	MarkCommitDurable
	// MarkTCBWritten: transaction control block persisted (equals
	// MarkCommitDurable when the config has no TCB volume).
	MarkTCBWritten
	// MarkLocksReleased: all involved DP2s have ended the transaction
	// and released its locks.
	MarkLocksReleased
	// MarkCommitDone: the commit reply reached the client; the
	// transaction is client-visibly committed.
	MarkCommitDone

	// TxnAborted: the client learned its transaction did not commit.
	TxnAborted
	// TxnUnresolved: the client's commit or abort call itself failed, so
	// the outcome is unknown at the client — the commit record may or may
	// not have become durable.
	TxnUnresolved

	// TxnBegin: the monitor registered the transaction.
	TxnBegin
	// TxnPrepare: one participant shard's durable prepare vote.
	TxnPrepare
	// TxnOutcome: the durable outcome decision at the coordinator.
	TxnOutcome
	// TxnApply: one participant shard applied the outcome (released
	// locks; on abort, undid the transaction's rows).
	TxnApply
)

const (
	numMarks = int(MarkCommitDone) + 1
	// NumPhases is the number of intervals between consecutive marks.
	NumPhases = numMarks - 1
)

// PhaseNames names phase k — the interval from mark k to mark k+1.
var PhaseNames = [NumPhases]string{
	"begin",         // BeginCall -> BeginDone: Begin RPC round trip
	"issue",         // BeginDone -> CommitCall: client issuing inserts
	"drain",         // CommitCall -> CommitSend: awaiting async insert replies
	"send",          // CommitSend -> MonitorRecv: commit request transfer + monitor queue
	"dispatch",      // MonitorRecv -> CoordStart: monitor compute + coordinator spawn
	"flush-data",    // CoordStart -> DataFlushed: phase 1 audit-tail flush fan-out
	"commit-record", // DataFlushed -> CommitDurable: phase 2 master commit record
	"tcb",           // CommitDurable -> TCBWritten: transaction control block write
	"lock-release",  // TCBWritten -> LocksReleased: end fan-out + lock release
	"reply",         // LocksReleased -> CommitDone: outcome checkpoint + reply transfer to client
}

// TxnEvent is one retained protocol event. Shard names the participant
// DP2 of a prepare or apply and is empty for coordinator events; Commit
// carries the decision of an outcome or apply.
type TxnEvent struct {
	Txn    uint64
	At     sim.Time
	Shard  string
	Kind   TxnKind
	Commit bool
}

// txnMarks is the in-flight mark table for one transaction.
type txnMarks struct {
	at  [numMarks]sim.Time
	set uint32
}

const allMarks = 1<<numMarks - 1

// PhaseStat is one row of the decomposition table.
type PhaseStat struct {
	Name  string
	Count int64
	Sum   sim.Time
	Mean  sim.Time
	P50   sim.Time
	P99   sim.Time
	Max   sim.Time
}

// TxnStream is the one record of what every transaction did. Record files
// a point; the stream folds it into three views:
//
//   - the ledger, counted from the client's side so it is exact even
//     across takeovers and faults: Begun, Committed, Aborted and
//     Unresolved, with the transactions in flight being the open ladder
//     tables. Its conservation law is
//
//     Begun == Committed + Aborted + Unresolved + in-flight
//
//   - the ladder: per-phase latency distributions of every commit whose
//     marks all arrived in order. A commit that reached MarkCommitDone
//     with marks missing or out of order counts Incomplete instead — a
//     healthy instrumented stack keeps it at zero, and tests assert
//     exactly that;
//
//   - the retained protocol events (TxnBegin … TxnApply), kept only once
//     the registry's EnableHistory was called, for the atomicity checker.
//
// The nil TxnStream records nothing, so an unmetered store pays one
// pointer test per point. Recording is a pure in-memory fold of scalars,
// so it cannot perturb a simulation's schedule.
type TxnStream struct {
	open map[uint64]*txnMarks //simlint:boxowner -- open txns own their mark tables
	free []*txnMarks          //simlint:box -- per-txn mark-table pool

	phases [NumPhases]LatencyHist
	total  LatencyHist

	Begun, Committed, Aborted, Unresolved *Counter
	Incomplete                            *Counter

	retain bool
	events []TxnEvent
}

func newTxnStream(r *Registry) *TxnStream {
	s := &TxnStream{
		open:       make(map[uint64]*txnMarks),
		Begun:      r.Counter("txn.begun"),
		Committed:  r.Counter("txn.committed"),
		Aborted:    r.Counter("txn.aborted"),
		Unresolved: r.Counter("txn.unresolved"),
		Incomplete: r.Counter("commit.path_incomplete"),
	}
	for i := range s.phases {
		s.phases[i].name = "commit.phase." + PhaseNames[i]
		r.hists = append(r.hists, &s.phases[i])
	}
	s.total.name = "commit.total"
	r.hists = append(r.hists, &s.total)
	r.AddCheck("txn-conservation", func() error {
		ended := s.Committed.Value() + s.Aborted.Value() + s.Unresolved.Value() + int64(len(s.open))
		if s.Begun.Value() != ended {
			return fmt.Errorf("begun %d != committed %d + aborted %d + unresolved %d + in-flight %d",
				s.Begun.Value(), s.Committed.Value(), s.Aborted.Value(), s.Unresolved.Value(), len(s.open))
		}
		return nil
	})
	return s
}

// EnableHistory turns on retention of the protocol events and returns the
// stream. Call before the run: events recorded earlier are not kept.
func (r *Registry) EnableHistory() *TxnStream {
	r.Commit.retain = true
	return r.Commit
}

// Record files point kind of txn at virtual time at. shard names the
// participant DP2 of a TxnPrepare or TxnApply; commit carries the
// decision of a TxnOutcome or TxnApply; both are ignored otherwise.
// Nil-safe.
//
//simlint:hotpath
func (s *TxnStream) Record(txn uint64, kind TxnKind, shard string, commit bool, at sim.Time) {
	if s == nil {
		return
	}
	switch {
	case kind == MarkBeginCall:
		s.Begun.Inc()
		tm := s.open[txn]
		if tm == nil {
			if n := len(s.free); n > 0 {
				tm = s.free[n-1]
				s.free[n-1] = nil
				s.free = s.free[:n-1]
			} else {
				tm = &txnMarks{}
			}
			s.open[txn] = tm
		}
		tm.mark(kind, at)
	case kind < MarkCommitDone:
		// A mark for a transaction with no open table — the monitor marking
		// a commit the client already filed unresolved — opens nothing.
		if tm := s.open[txn]; tm != nil {
			tm.mark(kind, at)
		}
	case kind <= TxnUnresolved:
		s.end(txn, kind, at)
	case s.retain:
		//simlint:allow hotalloc -- opt-in checker mode; unretained runs never reach the append
		s.events = append(s.events, TxnEvent{Txn: txn, At: at, Shard: shard, Kind: kind, Commit: commit})
	}
}

//simlint:hotpath
func (tm *txnMarks) mark(kind TxnKind, at sim.Time) {
	tm.at[kind] = at
	tm.set |= 1 << kind
}

// end files the client's ending of txn in the ledger and closes its table:
// a commit folds the table into the ladder (or counts Incomplete), an
// abort or an unresolved outcome discards it.
//
//simlint:hotpath
func (s *TxnStream) end(txn uint64, kind TxnKind, at sim.Time) {
	switch kind {
	case MarkCommitDone:
		s.Committed.Inc()
	case TxnAborted:
		s.Aborted.Inc()
	default:
		s.Unresolved.Inc()
	}
	tm := s.open[txn]
	if tm == nil {
		return
	}
	delete(s.open, txn)
	if kind == MarkCommitDone {
		tm.mark(kind, at)
		s.fold(tm)
	}
	*tm = txnMarks{}
	s.free = append(s.free, tm)
}

// fold records a committed transaction's phases, or counts it Incomplete
// when marks are missing or non-monotone.
//
//simlint:hotpath
func (s *TxnStream) fold(tm *txnMarks) {
	if tm.set != allMarks || !monotone(&tm.at) {
		s.Incomplete.Inc()
		return
	}
	for i := 0; i < NumPhases; i++ {
		s.phases[i].Record(tm.at[i+1] - tm.at[i])
	}
	s.total.Record(tm.at[numMarks-1] - tm.at[0])
}

func monotone(at *[numMarks]sim.Time) bool {
	for i := 1; i < numMarks; i++ {
		if at[i] < at[i-1] {
			return false
		}
	}
	return true
}

// Open reports the transactions begun but not yet ended — the ledger's
// in-flight term.
func (s *TxnStream) Open() int {
	if s == nil {
		return 0
	}
	return len(s.open)
}

// Events returns the retained protocol events in append order — each
// recorder's execution order, which the cooperative scheduler makes
// deterministic; per-shard apply order is the store's externalized serial
// order. The slice is the stream's own; callers must not mutate it.
func (s *TxnStream) Events() []TxnEvent {
	if s == nil {
		return nil
	}
	return s.events
}

// Len returns the number of retained protocol events.
func (s *TxnStream) Len() int {
	if s == nil {
		return 0
	}
	return len(s.events)
}

// PhaseStats returns the decomposition table, one row per phase in path
// order. Sum columns are exact, so
//
//	Σ_phases Sum == TotalStat().Sum
//
// holds exactly whenever Incomplete is zero.
func (s *TxnStream) PhaseStats() []PhaseStat {
	if s == nil {
		return nil
	}
	out := make([]PhaseStat, NumPhases)
	for i := range s.phases {
		out[i] = statOf(PhaseNames[i], &s.phases[i])
	}
	return out
}

// TotalStat returns the client-visible begin→commit distribution row.
func (s *TxnStream) TotalStat() PhaseStat {
	if s == nil {
		return PhaseStat{Name: "total"}
	}
	return statOf("total", &s.total)
}

func statOf(name string, h *LatencyHist) PhaseStat {
	return PhaseStat{
		Name:  name,
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P99:   h.Percentile(99),
		Max:   h.Max(),
	}
}
