package metrics

import (
	"fmt"

	"persistmem/internal/sim"
)

// The commit critical path is recorded as a ladder of *marks* — virtual
// timestamps at fixed points between the client's Begin call and the
// commit reply landing back at the client. Phase k of a transaction is
// the interval from mark k to mark k+1, so the phase durations telescope:
// their sum is exactly the client-visible begin→commit interval, with no
// gaps and no overlaps, by construction. That exact-tiling property is
// what lets the decomposition table claim to *explain* commit latency
// rather than merely sample parts of it.
//
// The client session and the transaction monitor both run on the same
// simulation engine (one goroutine), so a single marks table per
// registry is safe without locking.
const (
	// MarkBeginCall: client enters Session.Begin (timestamp captured
	// before the Begin RPC, attributed once the txn id is known).
	MarkBeginCall = iota
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

	numMarks = MarkCommitDone + 1
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

// txnMarks is the in-flight mark table for one transaction.
type txnMarks struct {
	at  [numMarks]sim.Time
	set uint32
}

const allMarks = 1<<numMarks - 1

// TxnPhases is one completed transaction's decomposition, retained only
// when CommitPath.Retain is set (tests use it to assert exact tiling
// transaction by transaction).
type TxnPhases struct {
	Txn   uint64
	At    [numMarks]sim.Time
	Phase [NumPhases]sim.Time
	Total sim.Time
}

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

// CommitPath folds commit marks into per-phase latency distributions.
// The nil CommitPath records nothing, so disabled instrumentation costs
// one pointer test per mark.
//
// Accounting is conserved: Started == Completed + Incomplete + Dropped +
// Open. Incomplete counts transactions that reached MarkCommitDone with
// marks missing or out of order — a healthy instrumented stack keeps it
// at zero, and tests assert exactly that.
type CommitPath struct {
	open map[uint64]*txnMarks //simlint:boxowner -- open txns own their mark tables
	free []*txnMarks          //simlint:box -- per-txn mark-table pool

	phases [NumPhases]LatencyHist
	total  LatencyHist

	Started    *Counter
	Completed  *Counter
	Incomplete *Counter
	Dropped    *Counter

	// Retain, when set before the run, keeps every completed
	// transaction's full decomposition in Txns.
	Retain bool
	Txns   []TxnPhases
}

func newCommitPath(r *Registry) *CommitPath {
	cp := &CommitPath{
		open:       make(map[uint64]*txnMarks),
		Started:    r.Counter("commit.path_started"),
		Completed:  r.Counter("commit.path_completed"),
		Incomplete: r.Counter("commit.path_incomplete"),
		Dropped:    r.Counter("commit.path_dropped"),
	}
	for i := range cp.phases {
		cp.phases[i].name = "commit.phase." + PhaseNames[i]
		r.hists = append(r.hists, &cp.phases[i])
	}
	cp.total.name = "commit.total"
	r.hists = append(r.hists, &cp.total)
	r.AddCheck("commit-path-conservation", func() error {
		folded := cp.Completed.Value() + cp.Incomplete.Value() + cp.Dropped.Value() + int64(len(cp.open))
		if cp.Started.Value() != folded {
			return fmt.Errorf("started %d != completed %d + incomplete %d + dropped %d + open %d",
				cp.Started.Value(), cp.Completed.Value(), cp.Incomplete.Value(), cp.Dropped.Value(), len(cp.open))
		}
		return nil
	})
	return cp
}

// Mark records mark m for txn at virtual time now. The first mark for a
// transaction opens its table. Nil-safe.
//
//simlint:hotpath
func (cp *CommitPath) Mark(txn uint64, m int, now sim.Time) {
	if cp == nil {
		return
	}
	tm := cp.open[txn]
	if tm == nil {
		if n := len(cp.free); n > 0 {
			tm = cp.free[n-1]
			cp.free[n-1] = nil
			cp.free = cp.free[:n-1]
		} else {
			tm = &txnMarks{}
		}
		cp.open[txn] = tm
		cp.Started.Inc()
	}
	tm.at[m] = now
	tm.set |= 1 << m
}

// Drop discards txn's marks without folding them — the transaction
// aborted, failed, or its outcome is unknown. Dropping an unknown txn is
// a no-op. Nil-safe.
//
//simlint:hotpath
func (cp *CommitPath) Drop(txn uint64) {
	if cp == nil {
		return
	}
	tm := cp.open[txn]
	if tm == nil {
		return
	}
	delete(cp.open, txn)
	cp.recycle(tm)
	cp.Dropped.Inc()
}

// Complete folds txn's marks into the per-phase histograms and returns
// the transaction's decomposition (folded is false — and the histograms
// untouched — when no marks are open for txn, or when marks are missing
// or non-monotone, which counts Incomplete). The caller must have
// recorded MarkCommitDone already. Nil-safe.
//
//simlint:hotpath
func (cp *CommitPath) Complete(txn uint64) (tp TxnPhases, folded bool) {
	if cp == nil {
		return TxnPhases{}, false
	}
	tm := cp.open[txn]
	if tm == nil {
		return TxnPhases{}, false
	}
	delete(cp.open, txn)
	if tm.set != allMarks || !monotone(&tm.at) {
		cp.Incomplete.Inc()
		cp.recycle(tm)
		return TxnPhases{}, false
	}
	tp = TxnPhases{Txn: txn, At: tm.at, Total: tm.at[numMarks-1] - tm.at[0]}
	for i := 0; i < NumPhases; i++ {
		d := tm.at[i+1] - tm.at[i]
		tp.Phase[i] = d
		cp.phases[i].Record(d)
	}
	cp.total.Record(tp.Total)
	cp.Completed.Inc()
	if cp.Retain {
		cp.Txns = append(cp.Txns, tp)
	}
	cp.recycle(tm)
	return tp, true
}

//simlint:hotpath
func (cp *CommitPath) recycle(tm *txnMarks) {
	*tm = txnMarks{}
	cp.free = append(cp.free, tm)
}

func monotone(at *[numMarks]sim.Time) bool {
	for i := 1; i < numMarks; i++ {
		if at[i] < at[i-1] {
			return false
		}
	}
	return true
}

// Open reports the number of transactions with marks recorded but
// neither completed nor dropped (in-flight at observation time).
func (cp *CommitPath) Open() int {
	if cp == nil {
		return 0
	}
	return len(cp.open)
}

// PhaseStats returns the decomposition table, one row per phase in path
// order. Sum columns are exact, so
//
//	Σ_phases Sum == TotalStat().Sum
//
// holds exactly whenever Incomplete is zero.
func (cp *CommitPath) PhaseStats() []PhaseStat {
	if cp == nil {
		return nil
	}
	out := make([]PhaseStat, NumPhases)
	for i := range cp.phases {
		out[i] = statOf(PhaseNames[i], &cp.phases[i])
	}
	return out
}

// TotalStat returns the client-visible begin→commit distribution row.
func (cp *CommitPath) TotalStat() PhaseStat {
	if cp == nil {
		return PhaseStat{Name: "total"}
	}
	s := statOf("total", &cp.total)
	return s
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
