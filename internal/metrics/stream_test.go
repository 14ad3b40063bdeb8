package metrics

import (
	"testing"
)

func TestTxnStreamRetainsProtocolEvents(t *testing.T) {
	var r Registry
	r.Commit = newTxnStream(&r)
	h := r.EnableHistory()
	if h != r.Commit || r.EnableHistory() != h {
		t.Fatal("EnableHistory does not return the registry's stream")
	}
	h.Record(1, TxnBegin, "", false, 10)
	h.Record(1, MarkBeginCall, "", false, 11) // ladder marks are not retained
	h.Record(1, TxnPrepare, "$DP-TRADES-0", false, 20)
	h.Record(1, TxnPrepare, "$DP-TRADES-1", false, 25)
	h.Record(1, TxnOutcome, "", true, 30)
	h.Record(1, TxnApply, "$DP-TRADES-0", true, 40)
	h.Record(1, TxnApply, "$DP-TRADES-1", true, 45)
	h.Record(1, MarkCommitDone, "", false, 46)

	want := []TxnEvent{
		{Txn: 1, Kind: TxnBegin, At: 10},
		{Txn: 1, Kind: TxnPrepare, Shard: "$DP-TRADES-0", At: 20},
		{Txn: 1, Kind: TxnPrepare, Shard: "$DP-TRADES-1", At: 25},
		{Txn: 1, Kind: TxnOutcome, Commit: true, At: 30},
		{Txn: 1, Kind: TxnApply, Shard: "$DP-TRADES-0", Commit: true, At: 40},
		{Txn: 1, Kind: TxnApply, Shard: "$DP-TRADES-1", Commit: true, At: 45},
	}
	got := h.Events()
	if h.Len() != len(want) || len(got) != len(want) {
		t.Fatalf("retained %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if h.Committed.Value() != 1 || h.Open() != 0 {
		t.Errorf("committed %d, open %d: retention must not change the ledger", h.Committed.Value(), h.Open())
	}
}

// A mark that arrives after the client filed its transaction — the monitor
// marking a commit whose call already failed at the client — opens no
// ladder table: the ledger's in-flight term and Open agree.
func TestLateMarkOpensNothing(t *testing.T) {
	r := NewRegistry()
	ts := r.Commit
	ts.Record(7, MarkBeginCall, "", false, 1)
	ts.Record(7, MarkBeginDone, "", false, 2)
	ts.Record(7, MarkCommitCall, "", false, 3)
	ts.Record(7, MarkCommitSend, "", false, 4)
	ts.Record(7, TxnUnresolved, "", false, 5)
	for k := MarkMonitorRecv; k < MarkCommitDone; k++ {
		ts.Record(7, k, "", false, 6)
	}
	if ts.Open() != 0 {
		t.Errorf("open = %d after late marks, want 0", ts.Open())
	}
	if errs := r.CheckConservation(); len(errs) != 0 {
		t.Errorf("conservation violated: %v", errs)
	}
	if ts.Unresolved.Value() != 1 || ts.TotalStat().Count != 0 {
		t.Errorf("unresolved %d, folded %d, want 1 and 0", ts.Unresolved.Value(), ts.TotalStat().Count)
	}
}

// The disabled-mode and steady-state contract: a transaction's every point
// costs a nil stream nothing, and a metered stream, once its table pool is
// warm, nothing either — figure and saturation runs pay zero for carrying
// the calls.
func TestTxnStreamAllocatesNothing(t *testing.T) {
	life := func(ts *TxnStream, txn uint64) {
		ts.Record(txn, TxnBegin, "", false, 0)
		for k := MarkBeginCall; k <= MarkTCBWritten; k++ {
			ts.Record(txn, k, "", false, 1)
		}
		ts.Record(txn, TxnPrepare, "$DP-TRADES-0", false, 1)
		ts.Record(txn, TxnOutcome, "", true, 1)
		ts.Record(txn, TxnApply, "$DP-TRADES-0", true, 1)
		ts.Record(txn, MarkLocksReleased, "", false, 1)
		ts.Record(txn, MarkCommitDone, "", false, 2)
	}
	metered := NewRegistry().Commit
	for name, ts := range map[string]*TxnStream{"nil": nil, "metered": metered} {
		txn := uint64(0)
		life(ts, txn) // warm the table pool
		if allocs := testing.AllocsPerRun(100, func() { txn++; life(ts, txn) }); allocs != 0 {
			t.Errorf("%s stream allocated %.1f times per transaction, want 0", name, allocs)
		}
	}
	if metered.Committed.Value() != 102 || metered.Open() != 0 {
		t.Errorf("metered stream committed %d with %d open, want 102 and 0", metered.Committed.Value(), metered.Open())
	}
}
