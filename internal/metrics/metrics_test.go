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
	var ts *TxnStream
	for k := MarkBeginCall; k <= TxnApply; k++ {
		ts.Record(1, k, "$DP-TRADES-0", true, 0)
	}
	if ts.Open() != 0 || ts.Len() != 0 || ts.Events() != nil || ts.PhaseStats() != nil || ts.TotalStat().Count != 0 {
		t.Fatal("nil stream has state")
	}
	var ls *LockSpans
	ls.OnEnter()
	ls.OnGranted(1)
	ls.OnTimeout()
	ls.OnWithdrawn()
	var as *ADPSpans
	as.OnWaiterIn()
	as.OnWaiterFlushed(1)
	var r *Registry
	if errs := r.CheckConservation(); errs != nil {
		t.Fatal("nil registry reported violations")
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
	ts := r.Commit

	// One clean transaction: strictly increasing marks.
	for m := MarkBeginCall; m <= MarkCommitDone; m++ {
		ts.Record(1, m, "", false, sim.Time(10*(m+1)))
	}
	for _, ps := range ts.PhaseStats() {
		if ps.Count != 1 || ps.Sum != 10 {
			t.Fatalf("phase %s: n=%d sum=%v, want 1 sample of 10", ps.Name, ps.Count, ps.Sum)
		}
	}
	if tot := ts.TotalStat(); tot.Count != 1 || tot.Sum != sim.Time(10*NumPhases) {
		t.Fatalf("total: n=%d sum=%v, want 1 sample of %v", tot.Count, tot.Sum, sim.Time(10*NumPhases))
	}

	// An aborted and an unresolved transaction leave the histograms
	// untouched.
	ts.Record(2, MarkBeginCall, "", false, 5)
	ts.Record(2, TxnAborted, "", false, 6)
	ts.Record(4, MarkBeginCall, "", false, 5)
	ts.Record(4, TxnUnresolved, "", false, 7)

	// A commit with a missing mark counts Incomplete, not in the ladder.
	ts.Record(3, MarkBeginCall, "", false, 1)
	ts.Record(3, MarkCommitDone, "", false, 99)

	// Protocol events touch neither the ledger nor the ladder, and are not
	// kept unless history is enabled.
	ts.Record(5, TxnBegin, "", false, 1)
	ts.Record(5, TxnOutcome, "", true, 2)

	if got := [...]int64{ts.Begun.Value(), ts.Committed.Value(), ts.Aborted.Value(), ts.Unresolved.Value(), ts.Incomplete.Value()}; got != [...]int64{4, 2, 1, 1, 1} {
		t.Fatalf("begun/committed/aborted/unresolved/incomplete = %v, want [4 2 1 1 1]", got)
	}
	if ts.TotalStat().Count != 1 {
		t.Fatalf("ladder folded %d transactions, want 1", ts.TotalStat().Count)
	}
	if ts.Open() != 0 || ts.Len() != 0 {
		t.Fatalf("open = %d, retained = %d, want 0 and 0", ts.Open(), ts.Len())
	}
	if errs := r.CheckConservation(); len(errs) != 0 {
		t.Fatalf("conservation violated: %v", errs)
	}
}

func TestConservationLawsDetectViolations(t *testing.T) {
	r := NewRegistry()
	// Healthy: balanced ledger, and one transaction in flight.
	r.Commit.Record(1, MarkBeginCall, "", false, 0)
	r.Commit.Record(1, MarkCommitDone, "", false, 1)
	r.Commit.Record(2, MarkBeginCall, "", false, 2)
	if errs := r.CheckConservation(); len(errs) != 0 {
		t.Fatalf("balanced ledger flagged: %v", errs)
	}
	// Violate: a commit counted without its table closing (an ending
	// filed through Record can't break the law; a raw counter bump can).
	r.Commit.Committed.Inc()
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
	r2.Locks.OnEnter()
	r2.Locks.OnWithdrawn() // its transaction ended: an exit, no wait sample
	if errs := r2.CheckConservation(); len(errs) != 0 || r2.Locks.Exits.Value() != 2 || r2.Locks.Wait.Count() != 1 {
		t.Fatalf("a withdrawal: exits %d, waits %d, %v; want 2 exits, 1 wait, balanced", r2.Locks.Exits.Value(), r2.Locks.Wait.Count(), errs)
	}
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
