package recovery

import (
	"bytes"
	"fmt"
	"testing"

	"persistmem/internal/ods"
)

func checkGroundTruth(t *testing.T, rb *Rebuilt, res ScenarioResult) {
	t.Helper()
	if rb == nil {
		t.Fatal("no rebuilt image")
	}
	for _, key := range res.Committed {
		body, ok := rb.Get("TRADES", key)
		if !ok {
			t.Errorf("committed key %d missing after recovery", key)
			continue
		}
		if !bytes.Equal(body, []byte(fmt.Sprintf("row-%d", key))) {
			t.Errorf("key %d body = %q", key, body)
		}
	}
	for _, key := range res.InFlight {
		if _, ok := rb.Get("TRADES", key); ok {
			t.Errorf("in-flight key %d resurrected by recovery", key)
		}
	}
}

func TestDiskRecoveryRestoresCommitted(t *testing.T) {
	res := RunScenario(ods.DiskDurability, 5, 1)
	if len(res.Errs) > 0 {
		t.Fatalf("workload errors: %v", res.Errs)
	}
	rep, rb, err := res.RecoverDisk(Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkGroundTruth(t, rb, res)
	if rep.Committed != 5 {
		t.Errorf("Committed = %d, want 5", rep.Committed)
	}
	if rep.MTTR <= 0 || rep.BytesRead == 0 || rep.RowsRedone != 20 {
		t.Errorf("report = %+v", rep)
	}
	res.Store.Eng.Shutdown()
}

func TestPMRecoveryRestoresCommitted(t *testing.T) {
	res := RunScenario(ods.PMDurability, 5, 1)
	if len(res.Errs) > 0 {
		t.Fatalf("workload errors: %v", res.Errs)
	}
	rep, rb, err := res.RecoverPM(Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	checkGroundTruth(t, rb, res)
	if !rep.UsedTCB {
		t.Error("PM recovery did not use the TCB region")
	}
	if rep.InFlight != 1 {
		t.Errorf("InFlight = %d, want 1 (TCB knows the open transaction)", rep.InFlight)
	}
	if rep.Committed != 5 {
		t.Errorf("Committed = %d, want 5", rep.Committed)
	}
	res.Store.Eng.Shutdown()
}

func TestPMRecoveryFasterThanDisk(t *testing.T) {
	// Claim C2: shorter MTTR with PM.
	dres := RunScenario(ods.DiskDurability, 20, 1)
	diskRep, _, err := dres.RecoverDisk(Options{})
	if err != nil {
		t.Fatal(err)
	}
	dres.Store.Eng.Shutdown()

	pres := RunScenario(ods.PMDurability, 20, 1)
	pmRep, _, err := pres.RecoverPM(Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	pres.Store.Eng.Shutdown()

	if pmRep.MTTR >= diskRep.MTTR {
		t.Errorf("PM MTTR (%v) not shorter than disk MTTR (%v)", pmRep.MTTR, diskRep.MTTR)
	}
	t.Logf("MTTR: disk=%v (read %dKB) pm=%v (read %dKB, TCB=%v)",
		diskRep.MTTR, diskRep.BytesRead/1024, pmRep.MTTR, pmRep.BytesRead/1024, pmRep.UsedTCB)
}

func TestPMRecoveryWithoutTCBStillCorrect(t *testing.T) {
	res := RunScenario(ods.PMDurability, 5, 1)
	rep, rb, err := res.RecoverPM(Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedTCB {
		t.Error("UsedTCB true with no TCB region")
	}
	checkGroundTruth(t, rb, res)
	res.Store.Eng.Shutdown()
}

func TestTCBShortensAnalysis(t *testing.T) {
	// The fine-grained claim in isolation: with TCBs the recovery scans
	// fewer records (no outcome-discovery pass). The fixed cost of
	// reading the small TCB table amortizes once the trail is nontrivial,
	// hence a few hundred transactions here.
	resA := RunScenario(ods.PMDurability, 300, 1)
	withTCB, _, _ := resA.RecoverPM(Options{}, true)
	resA.Store.Eng.Shutdown()
	resB := RunScenario(ods.PMDurability, 300, 1)
	without, _, _ := resB.RecoverPM(Options{}, false)
	resB.Store.Eng.Shutdown()
	if withTCB.RecordsScanned >= without.RecordsScanned {
		t.Errorf("TCB recovery scanned %d records, no-TCB scanned %d; TCB should scan fewer",
			withTCB.RecordsScanned, without.RecordsScanned)
	}
	if withTCB.MTTR >= without.MTTR {
		t.Errorf("TCB MTTR (%v) not shorter than no-TCB (%v)", withTCB.MTTR, without.MTTR)
	}
}

func TestPMDirectRecoveryRestoresCommitted(t *testing.T) {
	// §3.4's end vision: the per-DP2 PM logs plus the TCB region are the
	// entire durable state; full restart recovers from them alone.
	res := RunScenario(ods.PMDirectDurability, 5, 1)
	if len(res.Errs) > 0 {
		t.Fatalf("workload errors: %v", res.Errs)
	}
	rep, rb, err := res.RecoverPM(Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	checkGroundTruth(t, rb, res)
	if !rep.UsedTCB {
		t.Error("PMDirect recovery did not use the TCB region")
	}
	if rep.Committed != 5 {
		t.Errorf("Committed = %d, want 5", rep.Committed)
	}
	res.Store.Eng.Shutdown()
}

func TestPMDirectRecoveryFastest(t *testing.T) {
	dres := RunScenario(ods.PMDurability, 20, 1)
	pmRep, _, err := dres.RecoverPM(Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	dres.Store.Eng.Shutdown()
	pres := RunScenario(ods.PMDirectDurability, 20, 1)
	directRep, _, err := pres.RecoverPM(Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	pres.Store.Eng.Shutdown()
	// Same order of magnitude: both read PM logs; PMDirect reads from 4
	// regions instead of 4, so just assert it is in the PM regime.
	if directRep.MTTR > 2*pmRep.MTTR {
		t.Errorf("PMDirect MTTR %v far above PM MTTR %v", directRep.MTTR, pmRep.MTTR)
	}
	t.Logf("MTTR: pm=%v pmdirect=%v", pmRep.MTTR, directRep.MTTR)
}

func TestScenarioDeterministic(t *testing.T) {
	a := RunScenario(ods.PMDurability, 5, 7)
	b := RunScenario(ods.PMDurability, 5, 7)
	ra, _, _ := a.RecoverPM(Options{}, true)
	rb2, _, _ := b.RecoverPM(Options{}, true)
	if ra.MTTR != rb2.MTTR || ra.BytesRead != rb2.BytesRead {
		t.Errorf("recovery not deterministic: %+v vs %+v", ra, rb2)
	}
	a.Store.Eng.Shutdown()
	b.Store.Eng.Shutdown()
}

func TestRebuiltAccessors(t *testing.T) {
	rb := &Rebuilt{}
	if _, ok := rb.Get("NOPE", 1); ok {
		t.Error("Get on empty Rebuilt succeeded")
	}
	if rb.Rows() != 0 {
		t.Errorf("Rows = %d", rb.Rows())
	}
}

// AppendRowBody gives the scenarios' row image, the bytes fmt.Sprintf("row-%d")
// gave, in a RowBodyMax stack buffer with no allocation; RowBodies carves
// the same bytes from 4 KiB slabs, each body capacity-clipped so an append
// to it cannot reach its neighbour, at one allocation per slab.
func TestRowBody(t *testing.T) {
	var buf [RowBodyMax]byte
	var bodies RowBodies
	for _, key := range []uint64{0, 7, 41, 1000003, 1<<64 - 1} {
		want := fmt.Sprintf("row-%d", key)
		if got := AppendRowBody(buf[:0], key); string(got) != want || cap(got) != RowBodyMax {
			t.Errorf("AppendRowBody(%d) = %q (cap %d), want %q in the stack buffer", key, got, cap(got), want)
		}
		if got := bodies.Next(key); string(got) != want || cap(got) != len(got) {
			t.Errorf("RowBodies.Next(%d) = %q (cap %d), want %q with cap == len", key, got, cap(got), want)
		}
	}
	const n = 10000
	var total int
	got := make([][]byte, 0, n)
	allocs := testing.AllocsPerRun(1, func() {
		got, total = got[:0], 0
		for key := uint64(0); key < n; key++ {
			body := bodies.Next(key)
			got = append(got, body)
			total += len(body)
		}
	})
	if slabs := float64(total+rowSlabBytes-1) / rowSlabBytes; allocs > slabs {
		t.Errorf("%d bodies of %d B made %v allocations, want at most one per 4 KiB (%.0f)", n, total, allocs, slabs)
	}
	for key, body := range got {
		if want := AppendRowBody(buf[:0], uint64(key)); !bytes.Equal(body, want) || cap(body) != len(body) {
			t.Fatalf("body %d = %q (cap %d), want %q with cap == len", key, body, cap(body), want)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		var want [RowBodyMax]byte
		if !bytes.Equal(got[39], AppendRowBody(want[:0], 39)) {
			t.Fatal("RowBodies and AppendRowBody disagree")
		}
	}); n != 0 {
		t.Errorf("comparing against AppendRowBody on the stack allocates %v times, want 0", n)
	}
}
