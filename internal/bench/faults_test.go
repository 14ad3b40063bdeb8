package bench

import (
	"fmt"
	"strings"
	"testing"

	"persistmem/internal/sim"
)

// gateFaults is the matrix the repository gates on: `cmd/faults -txns 8
// -chaos 1` at the command's other defaults.
var gateFaults = FaultConfig{Txns: 8, Seed: 1, Pace: 20 * sim.Millisecond, Chaos: 1, Nines: 5, MTBFDays: 30}

// TestFaultMatrixGate holds §3.4's promise — when the call returns the
// data is persistent — over the whole matrix: every (durability × fault ×
// phase) cell recovers, passes its invariants and the history checker,
// and leaves no violation line. The cell counts pin the matrix size so
// the cross-shard cells (coordinator and participant kills inside the
// prepare, in-doubt, post-outcome and apply windows) cannot silently drop
// out, and the golden pins every column of every row.
func TestFaultMatrixGate(t *testing.T) {
	m := Runner{}.FaultMatrix(gateFaults)
	if v := m.Violations(); v != "" || !m.Passed() {
		t.Errorf("matrix did not run clean (Passed=%v):\n%s", m.Passed(), v)
	}
	count := map[string]int{}
	for _, c := range m.Cells {
		count[c.Fault]++
	}
	if len(m.Cells) != 64 || count["xs-coord"] != 9 || count["xs-part"] != 6 {
		t.Errorf("matrix has %d cells, %d xs-coord, %d xs-part; want 64, 9, 6",
			len(m.Cells), count["xs-coord"], count["xs-part"])
	}
	golden(t, "faults_txns8_chaos1.golden", m.Table())
}

// TestFaultCellsDeterministicAcrossParallelism: every cell of the gate
// matrix crashes, recovers and grades to the same bytes on one pool
// worker and on eight. cmd/faults rides on this; under -race it also
// shows the cells share nothing.
func TestFaultCellsDeterministicAcrossParallelism(t *testing.T) {
	seq := Runner{Parallelism: 1}.FaultMatrix(gateFaults)
	par := Runner{Parallelism: 8}.FaultMatrix(gateFaults)
	if s, p := seq.Table(), par.Table(); s != p {
		t.Errorf("table diverged across parallelism:\n--- 1\n%s--- 8\n%s", s, p)
	}
	if s, p := seq.Violations(), par.Violations(); s != p {
		t.Errorf("violations diverged across parallelism:\n--- 1\n%s--- 8\n%s", s, p)
	}
	for _, c := range seq.Cells {
		if len(c.Plan) > 0 && c.Firings == 0 {
			t.Errorf("cell %s/%s/%s fired no fault, so its differential is vacuous", c.Durability, c.Fault, c.Phase)
		}
	}
}

// TestFaultMatrixReportsFailures: the gate is only worth its run time if
// a broken cell shows. An availability class no recovery can meet fails
// every cell on its MTTR budget, and the rendering names the first
// failure, counts the rest and lists them all.
func TestFaultMatrixReportsFailures(t *testing.T) {
	cfg := gateFaults
	cfg.Txns, cfg.Chaos, cfg.Nines = 2, 0, 12
	m := Runner{}.FaultMatrix(cfg)
	if m.Passed() {
		t.Fatalf("matrix passed against a %v MTTR budget", m.Budget)
	}
	if !strings.Contains(m.Table(), "\n0/63 cells passed\n") {
		t.Errorf("table does not count 63 failed cells:\n%s", m.Table())
	}
	if got := strings.Count(m.Violations(), "over the "+m.Budget.String()+" budget\n"); got != 63 {
		t.Errorf("%d violation lines name the budget, want 63:\n%s", got, m.Violations())
	}

	m.Cells = m.Cells[:2]
	m.Cells[0].Fails = []string{"committed key 7 lost", "history: torn write"}
	m.Cells[1].Fails, m.Cells[1].PairsLost = nil, []string{"$ADP0", "$TMF"}
	if tbl := m.Table(); !strings.Contains(tbl, "FAIL: committed key 7 lost (+1 more)\n") || !strings.Contains(tbl, "\n1/2 cells passed\n") {
		t.Errorf("table hides the failure:\n%s", tbl)
	} else if !strings.Contains(tbl, "  PASS (pair lost: $ADP0, $TMF)\n") {
		t.Errorf("table hides the lost pairs of a passing cell:\n%s", tbl)
	}
	if got, want := m.Violations(), "disk/none/-: committed key 7 lost\ndisk/none/-: history: torn write\n"; got != want {
		t.Errorf("Violations() = %q, want %q", got, want)
	}
}

// sweepPoint is one chaos cell of the seed sweep: `cmd/faults -txns N
// -chaos 1 -seed S`.
type sweepPoint struct {
	txns int
	seed int64
}

// lostPairs names the pair each of the sweep's double-fault cells loses:
// the plan kills a primary, then fails its backup's CPU inside TakeoverDelay
// and restores it before the takeover check. The injector names the pair
// (Injector.PairsLost) instead of reporting a missed takeover, the cell's
// verdict reads "PASS (pair lost: $ADP0)", and the cell is held to
// everything else. Pinned so that the verdict is neither handed to a cell
// that lost no pair nor silently stops being exercised.
var lostPairs = map[sweepPoint]string{
	{8, 43}: "$DP-TRADES-3", {8, 61}: "$ADP0", {8, 167}: "$ADP0", {8, 197}: "$DP-TRADES-1",
	{32, 29}: "$ADP1", {32, 70}: "$TMF", {32, 197}: "$DP-TRADES-1", {32, 225}: "$DP-TRADES-3",
}

// vacuous lists the sweep's cells that commit nothing: the workload stalls
// behind its first fault for as long as it runs, so the cell passes without
// having put one acknowledged commit at risk. All eleven are at 8
// transactions. Pinned both ways (FaultCell.Committed == 0 ⇔ listed), so a
// change that stalls more workloads past their faults — the sweep turning
// vacuous — trips the test, and so does one that makes a listed cell do work.
// Seed 141 shows how: its primary NPMU power-fails at 1.27 ms and returns at
// 31.3 ms, so the first begin's TCB write, at 20 ms, waits out the fabric's
// 50 ms ack timeout on the dead primary and returns at 70.1 ms — just after
// CPU 1 failed (69.5 ms) and took $DP-TRADES-1 away for the 400 ms takeover
// delay, longer than the rest of the run.
var vacuous = map[sweepPoint]bool{
	{8, 25}: true, {8, 31}: true, {8, 40}: true, {8, 43}: true, {8, 50}: true,
	{8, 141}: true, {8, 175}: true, {8, 194}: true, {8, 230}: true, {8, 251}: true,
	{8, 254}: true,
}

// TestChaosSeedSweep runs the chaos cell of `cmd/faults -txns N -chaos 1
// -seed S` for S = 1..256 at N = 8 and 32. Every cell fires a fault and
// passes, and only the vacuous ones commit nothing: none may lose an acknowledged commit, find a log unreadable or
// miss a takeover whose backup host stayed up. Drop the poison in
// ods.Txn.Commit and seeds 10, 12, 25, 36, 40, 48, 50, 54 and 60 say
// "committed key lost" at 8 transactions (twelve seeds at 32); read
// pmm.ErrNotFound as ErrNoLog in recovery.fromPM and seed 40 says "region
// not found"; excuse only a backup host that is down at check time in
// faultinject.expectTakeoverOf and the lostPairs cells say "did not take over
// within 400ms".
func TestChaosSeedSweep(t *testing.T) {
	var points []sweepPoint
	for _, txns := range []int{8, 32} {
		for seed := int64(1); seed <= 256; seed++ {
			points = append(points, sweepPoint{txns, seed})
		}
	}
	cells := make([]FaultCell, len(points))
	Runner{}.forEach(len(points), func(i int) {
		cfg := gateFaults
		cfg.Txns, cfg.Seed = points[i].txns, points[i].seed
		m := newFaultMatrix(cfg)
		chaos := len(m.Cells) - 1
		m.run(chaos)
		cells[i] = m.Cells[chaos]
	})
	for i, c := range cells {
		at := fmt.Sprintf("txns %d seed %d", points[i].txns, points[i].seed)
		if c.Firings == 0 {
			t.Errorf("%s: the chaos plan fired no fault", at)
		}
		if len(c.Fails) > 0 {
			t.Errorf("%s fails: %v", at, c.Fails)
		}
		if got, want := strings.Join(c.PairsLost, ", "), lostPairs[points[i]]; got != want {
			t.Errorf("%s: pairs lost %q, want %q", at, got, want)
		}
		if got, want := c.Committed == 0, vacuous[points[i]]; got != want {
			t.Errorf("%s: committed %d transactions, vacuous table says %v", at, c.Committed, want)
		}
	}
}

// BenchmarkFaultMatrix is the gate matrix as a host-cost instrument: one
// 64-cell seed-1 matrix per op on one worker — 64 stores built, crashed,
// recovered and checked (-benchmem for what that allocates).
func BenchmarkFaultMatrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m := (Runner{Parallelism: 1}).FaultMatrix(gateFaults); !m.Passed() {
			b.Fatalf("matrix failed:\n%s", m.Violations())
		}
	}
}

// MTTRBudget inverts the availability equation: recovering exactly within
// the budget leaves the asked-for 10^-nines of unavailability,
// mttr/(mtbf+mttr); overshooting it twentyfold loses the class.
func TestMTTRBudget(t *testing.T) {
	month := 30 * 24 * 3600 * sim.Second
	budget := MTTRBudget(month, 5)
	if budget < 25*sim.Second || budget > 27*sim.Second {
		t.Errorf("5-nines budget at monthly MTBF = %v, want ~26s", budget)
	}
	unavailable := func(mttr sim.Time) float64 { return float64(mttr) / float64(month+mttr) }
	if u := unavailable(budget); u > 1e-5*(1+1e-9) {
		t.Errorf("recovering within budget leaves %g unavailable, want <= 1e-5", u)
	}
	if u := unavailable(20 * budget); u <= 1e-5 {
		t.Errorf("recovering at 20x budget leaves only %g unavailable", u)
	}
	if MTTRBudget(0, 5) != 0 || MTTRBudget(month, 0) != 0 {
		t.Error("degenerate inputs must yield a zero budget")
	}
}
