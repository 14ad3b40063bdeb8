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
	m.Cells[1].Fails = nil
	if tbl := m.Table(); !strings.Contains(tbl, "FAIL: committed key 7 lost (+1 more)\n") || !strings.Contains(tbl, "\n1/2 cells passed\n") {
		t.Errorf("table hides the failure:\n%s", tbl)
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

// pairLost names the chaos cells whose plan kills a primary and then fails
// its backup's CPU inside TakeoverDelay: both members of one pair are
// gone, and the takeover-bound invariant reports it. Whether that is a
// fault the store must survive or an availability event the verdict should
// name is ROADMAP item 1's open decision; until it is taken these are the
// sweep's only tolerated failures.
var pairLost = map[sweepPoint]bool{{8, 43}: true, {8, 61}: true, {32, 29}: true}

// TestChaosSeedSweep runs the chaos cell of `cmd/faults -txns N -chaos 1
// -seed S` for S = 1..64 at N = 8 and 32. Every seed passes or is a listed
// pair-lost cell failing only on the takeover bound: a new failing seed
// fails the test, and so does a listed one that starts to pass (shrink the
// list). No cell may lose an acknowledged commit or find a log unreadable:
// drop the poison in ods.Txn.Commit and seeds 10, 12, 25, 36, 40, 48, 50,
// 54 and 60 say "committed key lost" at 8 transactions (twelve seeds at
// 32); read pmm.ErrNotFound as ErrNoLog in recovery.fromPM and seed 40
// says "region not found".
func TestChaosSeedSweep(t *testing.T) {
	var points []sweepPoint
	for _, txns := range []int{8, 32} {
		for seed := int64(1); seed <= 64; seed++ {
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
		if !pairLost[points[i]] {
			if len(c.Fails) > 0 {
				t.Errorf("%s fails: %v", at, c.Fails)
			}
			continue
		}
		if len(c.Fails) == 0 {
			t.Errorf("%s passes now: take it off the pair-lost list", at)
		}
		for _, f := range c.Fails {
			if !strings.Contains(f, "did not take over within") {
				t.Errorf("%s: pair-lost cell fails on more than the takeover bound: %s", at, f)
			}
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
