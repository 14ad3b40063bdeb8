package tmf

import (
	"testing"

	"persistmem/internal/audit"
)

func TestCommitPhaseNames(t *testing.T) {
	want := map[CommitPhase]string{
		PhasePrepareStart:   "prepare-start",
		PhasePrepared:       "prepared",
		PhaseOutcomeDurable: "outcome-durable",
		PhaseApplyStart:     "apply-start",
		PhaseDone:           "done",
		CommitPhase(0):      "phase(0)",
		CommitPhase(99):     "phase(99)",
	}
	for ph, name := range want {
		if got := ph.String(); got != name {
			t.Errorf("CommitPhase(%d).String() = %q, want %q", int(ph), got, name)
		}
	}
}

func TestPhaseHookFiresInOrder(t *testing.T) {
	var tm TMF
	tm.firePhase(PhasePrepareStart, 1, 1) // no hook installed: must be a no-op

	var got []CommitPhase
	tm.SetPhaseHook(func(phase CommitPhase, txn audit.TxnID, seq int64) {
		if txn != 7 || seq != 3 {
			t.Errorf("hook saw txn %d seq %d, want 7/3", txn, seq)
		}
		got = append(got, phase)
	})
	for _, ph := range []CommitPhase{PhasePrepareStart, PhasePrepared, PhaseOutcomeDurable, PhaseApplyStart, PhaseDone} {
		tm.firePhase(ph, 7, 3)
	}
	tm.SetPhaseHook(nil)
	tm.firePhase(PhaseDone, 7, 3) // removed: no append, no panic
	if len(got) != 5 || got[0] != PhasePrepareStart || got[4] != PhaseDone {
		t.Errorf("hook fired %v", got)
	}
}

func TestAbsorbDeltas(t *testing.T) {
	var tm TMF
	st := tm.absorb(nil, &beginDelta{txn: 5}).(*tmfState)
	if !st.active[5] || st.nextTxn != 6 {
		t.Errorf("after begin 5: active=%v nextTxn=%d", st.active, st.nextTxn)
	}
	st = tm.absorb(st, &beginDelta{txn: 9}).(*tmfState)
	if !st.active[9] || st.nextTxn != 10 {
		t.Errorf("after begin 9: active=%v nextTxn=%d", st.active, st.nextTxn)
	}
	st = tm.absorb(st, &outcomeDelta{txn: 5}).(*tmfState)
	if st.active[5] {
		t.Error("outcome delta did not retire txn 5")
	}
	st = tm.absorb(st, &outcomeDelta{txn: 9}).(*tmfState)
	if st.active[9] {
		t.Error("outcome delta did not retire txn 9")
	}
	full := newState()
	full.nextTxn = 42
	if got := tm.absorb(st, full).(*tmfState); got.nextTxn != 42 {
		t.Error("full-state delta not adopted")
	}
}
