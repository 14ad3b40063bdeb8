package metrics

import (
	"fmt"
	"strings"
	"testing"

	"persistmem/internal/sim"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	// The zero-cost-disabled rule: every recording method must be safe on
	// a nil receiver, because unmetered subsystems hold nil pointers.
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Inc()
	g.Dec()
	g.Add(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var u *Util
	u.Add(1, 10)
	if u.Level() != 0 || u.Busy(100) != 0 || u.MeanLevel(100) != 0 {
		t.Fatal("nil util has state")
	}
	var h *LatencyHist
	h.Record(42)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Max() != 0 {
		t.Fatal("nil hist has observations")
	}
	var cp *CommitPath
	cp.Mark(1, MarkBeginCall, 0)
	cp.Drop(1)
	if _, folded := cp.Complete(1); folded {
		t.Fatal("nil commit path folded a transaction")
	}
	if cp.Open() != 0 {
		t.Fatal("nil commit path has open transactions")
	}
	var tx *TxnAccounting
	tx.OnBegin()
	tx.OnCommit()
	tx.OnAbort()
	tx.OnUnresolved()
	var ls *LockSpans
	ls.OnEnter()
	ls.OnGranted(1)
	ls.OnTimeout()
	var as *ADPSpans
	as.OnWaiterIn()
	as.OnWaiterFlushed(1)
	var r *Registry
	if errs := r.CheckConservation(); errs != nil {
		t.Fatal("nil registry reported violations")
	}
	if r.Dump(0) != "" {
		t.Fatal("nil registry dumped output")
	}
}

func TestUtilIntegratesBusyTime(t *testing.T) {
	r := NewRegistry()
	u := r.Util("test.util")
	u.Add(1, 10)  // busy from t=10
	u.Add(1, 20)  // level 2 from t=20
	u.Add(-1, 30) // level 1 from t=30
	u.Add(-1, 50) // idle from t=50
	// Busy 10..50 of 0..100 = 40%.
	if got := u.Busy(100); got != 0.4 {
		t.Fatalf("busy = %v, want 0.4", got)
	}
	// Level-weighted: 1×10 + 2×10 + 1×20 = 50 unit-ticks over 100.
	if got := u.MeanLevel(100); got != 0.5 {
		t.Fatalf("mean level = %v, want 0.5", got)
	}
	if u.Level() != 0 {
		t.Fatalf("level = %d, want 0", u.Level())
	}
}

func TestLatencyHistExactSum(t *testing.T) {
	r := NewRegistry()
	h := r.Hist("test.hist")
	var want sim.Time
	for _, d := range []sim.Time{1, 10, 100, 1000, 12345} {
		h.Record(d)
		want += d
	}
	if h.Sum() != want {
		t.Fatalf("sum = %v, want %v (must be exact, not bucketed)", h.Sum(), want)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != want/5 {
		t.Fatalf("mean = %v, want %v", h.Mean(), want/5)
	}
	if h.Max() < 12345 {
		t.Fatalf("max = %v, want >= 12345", h.Max())
	}
}

func TestCommitPathFoldsAndConserves(t *testing.T) {
	r := NewRegistry()
	cp := r.Commit
	cp.Retain = true

	// One clean transaction: strictly increasing marks.
	for m := 0; m < NumPhases+1; m++ {
		cp.Mark(1, m, sim.Time(10*(m+1)))
	}
	tp, folded := cp.Complete(1)
	if !folded {
		t.Fatal("clean transaction did not fold")
	}
	var sum sim.Time
	for _, ph := range tp.Phase {
		if ph != 10 {
			t.Fatalf("phase = %v, want 10", ph)
		}
		sum += ph
	}
	if sum != tp.Total || tp.Total != sim.Time(10*NumPhases) {
		t.Fatalf("sum %v total %v", sum, tp.Total)
	}

	// A dropped transaction leaves the histograms untouched.
	cp.Mark(2, MarkBeginCall, 5)
	cp.Drop(2)

	// A transaction with a missing mark counts Incomplete, not Completed.
	cp.Mark(3, MarkBeginCall, 1)
	cp.Mark(3, MarkCommitDone, 99)
	if _, folded := cp.Complete(3); folded {
		t.Fatal("gap-marked transaction folded")
	}

	// Completing an unknown transaction is a no-op.
	if _, folded := cp.Complete(77); folded {
		t.Fatal("unknown transaction folded")
	}

	if cp.Completed.Value() != 1 || cp.Dropped.Value() != 1 || cp.Incomplete.Value() != 1 {
		t.Fatalf("completed=%d dropped=%d incomplete=%d, want 1/1/1",
			cp.Completed.Value(), cp.Dropped.Value(), cp.Incomplete.Value())
	}
	if cp.Open() != 0 {
		t.Fatalf("open = %d, want 0", cp.Open())
	}
	if errs := r.CheckConservation(); len(errs) != 0 {
		t.Fatalf("conservation violated: %v", errs)
	}
	if len(cp.Txns) != 1 {
		t.Fatalf("retained %d, want 1", len(cp.Txns))
	}
}

func TestConservationLawsDetectViolations(t *testing.T) {
	r := NewRegistry()
	// Healthy: balanced ledger.
	r.Txns.OnBegin()
	r.Txns.OnCommit()
	if errs := r.CheckConservation(); len(errs) != 0 {
		t.Fatalf("balanced ledger flagged: %v", errs)
	}
	// Violate: a commit counted without its in-flight decrement (the
	// paired OnCommit can't break the law; a raw counter bump can).
	r.Txns.Committed.Inc()
	errs := r.CheckConservation()
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "txn-conservation") {
		t.Fatalf("unbalanced ledger not flagged: %v", errs)
	}

	// Lock-queue law.
	r2 := NewRegistry()
	r2.Locks.OnEnter()
	if errs := r2.CheckConservation(); len(errs) != 0 {
		t.Fatalf("queued waiter flagged (occupancy term must absorb it): %v", errs)
	}
	r2.Locks.OnGranted(10)
	r2.Locks.Timeouts.Inc() // timeout without its queue decrement: broken
	if errs := r2.CheckConservation(); len(errs) == 0 {
		t.Fatal("spurious timeout not flagged")
	}

	// ADP boxcar law.
	r3 := NewRegistry()
	r3.ADP.OnWaiterIn()
	if errs := r3.CheckConservation(); len(errs) != 0 {
		t.Fatalf("pending waiter flagged (occupancy term must absorb it): %v", errs)
	}
	r3.ADP.OnWaiterFlushed(5)
	r3.ADP.Flushed.Inc() // flush without its pending decrement: broken
	if errs := r3.CheckConservation(); len(errs) == 0 {
		t.Fatal("spurious flush not flagged")
	}
}

func TestDumpSortedAndNonZeroOnly(t *testing.T) {
	r := NewRegistry()
	r.Txns.OnBegin()
	r.Txns.OnCommit()
	r.DP2.Insert.Record(250)
	out := r.Dump(1000)
	if !strings.Contains(out, "txn.begun") || !strings.Contains(out, "dp2.insert") {
		t.Fatalf("dump missing instruments:\n%s", out)
	}
	if strings.Contains(out, "locks.wait") {
		t.Fatalf("dump includes zero-valued instrument:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Fatalf("dump not sorted: %q > %q", lines[i-1], lines[i])
		}
	}
}

// TestLoadSpansConservation exercises the open-loop load ledger: the
// arrival/start/drop counters obey their conservation law while work is
// queued and after it drains, queue-wait samples accumulate, and the
// nil receiver is a no-op like every other instrument.
func TestLoadSpansConservation(t *testing.T) {
	var nilLS *LoadSpans
	nilLS.OnArrival()
	nilLS.OnDrop()
	nilLS.OnStart(5)

	r := NewRegistry()
	ld := r.Load
	if ld == nil {
		t.Fatal("registry has no LoadSpans")
	}
	for i := 0; i < 10; i++ {
		ld.OnArrival()
	}
	ld.OnDrop()
	for i := 0; i < 6; i++ {
		ld.OnStart(sim.Time(i) * sim.Millisecond)
	}
	// 10 arrivals = 6 started + 1 dropped + 3 still queued.
	if errs := r.CheckConservation(); len(errs) != 0 {
		t.Fatalf("conservation violated mid-flight: %v", errs)
	}
	if ld.Queued.Value() != 3 {
		t.Errorf("queued = %d, want 3", ld.Queued.Value())
	}
	if ld.Wait.Count() != 6 {
		t.Errorf("wait samples = %d, want 6", ld.Wait.Count())
	}
	for i := 0; i < 3; i++ {
		ld.OnStart(sim.Millisecond)
	}
	if errs := r.CheckConservation(); len(errs) != 0 {
		t.Fatalf("conservation violated after drain: %v", errs)
	}
	if ld.Queued.Value() != 0 {
		t.Errorf("queued = %d after drain, want 0", ld.Queued.Value())
	}

	// A start that never arrived breaks the law and must be caught.
	ld.OnStart(0)
	errs := r.CheckConservation()
	found := false
	for _, err := range errs {
		if strings.Contains(err.Error(), "load") {
			found = true
		}
	}
	if !found {
		t.Errorf("phantom start not flagged: %v", errs)
	}
}

// Counters and histograms are handed out of per-registry slabs: each is its
// own instrument with its own name and state, across a slab boundary too,
// and a kind costs an allocation a slab, not one an instrument. NewRegistry's
// own bundles must fit one slab of each kind, which is what instrumentSlab
// is sized for.
func TestInstrumentsComeFromSlabs(t *testing.T) {
	std := NewRegistry()
	if len(std.counters) > instrumentSlab || len(std.hists) > instrumentSlab {
		t.Errorf("NewRegistry registers %d counters and %d histograms: a slab of %d no longer holds a kind",
			len(std.counters), len(std.hists), instrumentSlab)
	}

	r := &Registry{}
	const n = 2*instrumentSlab + 1
	for i := 0; i < n; i++ {
		r.Counter(fmt.Sprintf("c%d", i)).Add(int64(i))
		r.Hist(fmt.Sprintf("h%d", i)).Record(sim.Time(i) * sim.Microsecond)
	}
	for i := 0; i < n; i++ {
		if c := r.counters[i]; c.Name() != fmt.Sprintf("c%d", i) || c.Value() != int64(i) {
			t.Errorf("counter %d is %q = %d", i, c.Name(), c.Value())
		}
		if h := r.hists[i]; h.Name() != fmt.Sprintf("h%d", i) || h.Count() != 1 || h.Sum() != sim.Time(i)*sim.Microsecond {
			t.Errorf("histogram %d is %q: n=%d sum=%v", i, h.Name(), h.Count(), h.Sum())
		}
	}

	perSlab := testing.AllocsPerRun(50, func() {
		r := &Registry{}
		for i := 0; i < instrumentSlab; i++ {
			r.Counter("c")
			r.Hist("h")
		}
	})
	// Two slabs, each with its stretch of the index (and, under -race, the
	// registry and its first slab pointer): not one an instrument.
	if perSlab > 6 {
		t.Errorf("%d counters and %[1]d histograms cost %.0f allocations, want at most 6", instrumentSlab, perSlab)
	}
}
