package recovery

import (
	"testing"

	"persistmem/internal/audit"
	"persistmem/internal/sim"
	"persistmem/internal/tmf"
)

// The in-doubt resolution tests pin resolveInDoubt's contract for each
// outcome-record state a prepared cross-shard transaction can be found
// in after a crash: a durable commit outcome means redo, a durable
// abort outcome means discard, and no outcome anywhere means presumed
// abort — never redo, never a third state.

func TestInDoubtPresumedAbortWithoutOutcome(t *testing.T) {
	an := newAnalysis()
	an.prepared[7] = true
	var rep Report
	resolveInDoubt(an, &rep)
	if got := an.outcome[7]; got != tmf.TCBAborted {
		t.Errorf("prepared txn with no outcome resolved to state %d, want TCBAborted", got)
	}
	if rep.InDoubt != 1 || rep.OutcomeResolved != 0 {
		t.Errorf("report = {InDoubt: %d, OutcomeResolved: %d}, want {1, 0}", rep.InDoubt, rep.OutcomeResolved)
	}
}

func TestInDoubtResolvedByCommitOutcome(t *testing.T) {
	an := newAnalysis()
	an.prepared[7] = true
	an.outcome[7] = tmf.TCBCommitted
	var rep Report
	resolveInDoubt(an, &rep)
	if got := an.outcome[7]; got != tmf.TCBCommitted {
		t.Errorf("outcome flipped to %d, want TCBCommitted kept", got)
	}
	if rep.InDoubt != 0 || rep.OutcomeResolved != 1 {
		t.Errorf("report = {InDoubt: %d, OutcomeResolved: %d}, want {0, 1}", rep.InDoubt, rep.OutcomeResolved)
	}
}

func TestInDoubtResolvedByAbortOutcome(t *testing.T) {
	an := newAnalysis()
	an.prepared[7] = true
	an.outcome[7] = tmf.TCBAborted
	var rep Report
	resolveInDoubt(an, &rep)
	if got := an.outcome[7]; got != tmf.TCBAborted {
		t.Errorf("outcome flipped to %d, want TCBAborted kept", got)
	}
	if rep.InDoubt != 0 || rep.OutcomeResolved != 1 {
		t.Errorf("report = {InDoubt: %d, OutcomeResolved: %d}, want {0, 1}", rep.InDoubt, rep.OutcomeResolved)
	}
}

func TestInDoubtActiveTCBStateIsStillPresumedAbort(t *testing.T) {
	// A TCB slot caught in TCBActive is not a decision: the coordinator
	// died before the commit point, so the prepared participant must
	// still resolve to presumed abort.
	an := newAnalysis()
	an.prepared[7] = true
	an.outcome[7] = tmf.TCBActive
	var rep Report
	resolveInDoubt(an, &rep)
	if got := an.outcome[7]; got != tmf.TCBAborted {
		t.Errorf("active-state prepared txn resolved to %d, want TCBAborted", got)
	}
	if rep.InDoubt != 1 || rep.OutcomeResolved != 0 {
		t.Errorf("report = {InDoubt: %d, OutcomeResolved: %d}, want {1, 0}", rep.InDoubt, rep.OutcomeResolved)
	}
}

// TestInDoubtStreamResolution drives the full scan → resolve → redo path
// over a synthetic audit stream holding one transaction of each kind:
// txn 1 prepared with a durable commit outcome (rows must be redone),
// txn 2 prepared with a durable abort outcome (rows discarded), txn 3
// prepared with no outcome at all (presumed abort, rows discarded).
func TestInDoubtStreamResolution(t *testing.T) {
	var stream []byte
	row := func(txn audit.TxnID, key uint64) {
		stream = audit.AppendRecord(stream, &audit.Record{
			Type: audit.RecInsert, Txn: txn, File: "TRADES", Key: key, Body: []byte("v"),
		})
	}
	prep := func(txn audit.TxnID) {
		stream = audit.AppendRecord(stream, &audit.Record{Type: audit.RecPrepare, Txn: txn})
	}
	outcome := func(txn audit.TxnID, state uint8) {
		stream = audit.AppendRecord(stream, &audit.Record{
			Type: audit.RecOutcome, Txn: txn,
			Body: tmf.AppendOutcome(nil, state, []string{"$DP-TRADES-0", "$DP-TRADES-1"}),
		})
	}
	prep(1)
	row(1, 10)
	stream = audit.AppendRecord(stream, &audit.Record{
		Type: audit.RecUpdate, Txn: 1, File: "TRADES", Key: 10, Body: []byte("v2"),
	})
	row(1, 11)
	stream = audit.AppendRecord(stream, &audit.Record{
		Type: audit.RecDelete, Txn: 1, File: "TRADES", Key: 11,
	})
	prep(2)
	row(2, 20)
	prep(3)
	row(3, 30)
	outcome(1, tmf.TCBCommitted)
	outcome(2, tmf.TCBAborted)

	eng := sim.NewEngine(1)
	var rep Report
	var rb *Rebuilt
	eng.Spawn("recover", func(p *sim.Proc) {
		an := newAnalysis()
		var opts Options
		opts.defaults()
		scanStream(p, opts, stream, an, &rep.RecordsScanned)
		resolveInDoubt(an, &rep)
		rb, _ = redo(p, opts, [][]byte{stream}, an, &rep)
	})
	eng.Run()

	if rep.OutcomeResolved != 2 || rep.InDoubt != 1 {
		t.Errorf("report = {OutcomeResolved: %d, InDoubt: %d}, want {2, 1}", rep.OutcomeResolved, rep.InDoubt)
	}
	if body, ok := rb.Get("TRADES", 10); !ok || string(body) != "v2" {
		t.Errorf("committed txn's row = %q, %v after redo; want updated image", body, ok)
	}
	for _, key := range []uint64{11, 20, 30} {
		if _, ok := rb.Get("TRADES", key); ok {
			t.Errorf("row %d (deleted or aborted/in-doubt) visible after redo", key)
		}
	}
	if rb.Rows() != 1 {
		t.Errorf("rebuilt image holds %d rows, want 1", rb.Rows())
	}
	if rep.Committed != 1 || rep.Aborted != 2 {
		t.Errorf("classified {Committed: %d, Aborted: %d}, want {1, 2}", rep.Committed, rep.Aborted)
	}
}
