package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"persistmem/internal/faultinject"
	"persistmem/internal/ods"
	"persistmem/internal/recovery"
	"persistmem/internal/sim"
	"persistmem/internal/tmf"
)

// FaultConfig sizes the fault matrix; cmd/faults' flags map onto it one
// to one.
type FaultConfig struct {
	// Txns transactions of 4 inserts each are attempted per cell before
	// the crash.
	Txns int
	Seed int64
	// Pace is the think time before each transaction.
	Pace sim.Time
	// Chaos is the number of random chaos plans appended to the matrix.
	Chaos int
	// Nines and MTBFDays derive the MTTR budget: the availability class
	// and the assumed mean time between failures.
	Nines, MTBFDays int
}

// FaultCell is one matrix entry: a durability mode, a named fault, and
// the commit-count phase at which it strikes.
type FaultCell struct {
	Durability ods.Durability
	Fault      string
	Phase      string
	Plan       faultinject.Plan
	// TwoPhase runs the workload under the cross-shard outcome-record
	// protocol (every commit prepares on all 4 participant shards).
	TwoPhase bool

	// filled by the run
	Firings   int
	Committed int
	TxnErrs   int
	Resolved  int // in-doubt transactions recovery resolved from an outcome record
	InDoubt   int // in-doubt transactions recovery presumed aborted
	MTTR      sim.Time
	BytesRead int64
	Fails     []string
	// PairsLost names the service pairs the plan took both members of (a
	// primary, then its backup's CPU inside the takeover delay). Such a cell
	// still passes or fails on its invariants; the verdict says what it lost.
	PairsLost []string
}

// FaultMatrix is a swept (durability × fault × phase) matrix of
// deterministic mid-flight fault-injection scenarios, each held against
// the paper's §5 claims: no committed transaction lost, no in-flight
// transaction resurrected, takeover within the bound, and recovery within
// the MTTR budget that §1.3's availability class implies.
type FaultMatrix struct {
	Config FaultConfig
	// Budget is the MTTR budget every cell's recovery is held to.
	Budget sim.Time
	Cells  []FaultCell
}

// planFor builds the fault plan for one named fault at one phase. Every
// fail is paired with a restore so the store must survive the outage
// window, not merely the instant of failure.
func planFor(fault string, after int64) faultinject.Plan {
	at := faultinject.Trigger{AfterCommits: after}
	restore := func(d sim.Time) faultinject.Trigger {
		return faultinject.Trigger{AfterCommits: after, Delay: d}
	}
	switch fault {
	case "cpufail":
		// CPU 0 hosts the TMF, PMM and ADP0 primaries: the worst single
		// processor loss the paper's pair design must absorb.
		return faultinject.Plan{
			{Kind: faultinject.CPUFail, Target: 0, When: at},
			{Kind: faultinject.CPURestore, Target: 0, When: restore(300 * sim.Millisecond)},
		}
	case "pathfail":
		return faultinject.Plan{
			{Kind: faultinject.PathFail, Target: 0, When: at},
			{Kind: faultinject.PathRestore, Target: 0, When: restore(200 * sim.Millisecond)},
		}
	case "prockill":
		return faultinject.Plan{
			{Kind: faultinject.ProcessKill, Service: "$TMF", When: at},
		}
	case "diskfail":
		return faultinject.Plan{
			{Kind: faultinject.DataVolumeFail, Target: 0, When: at},
			{Kind: faultinject.DataVolumeRestore, Target: 0, When: restore(200 * sim.Millisecond)},
		}
	case "npmufail":
		return faultinject.Plan{
			{Kind: faultinject.NPMUPowerFail, Target: 0, When: at},
			{Kind: faultinject.NPMURestore, Target: 0, When: restore(200 * sim.Millisecond)},
		}
	}
	panic("unknown fault " + fault)
}

// crossShardCells builds the cross-shard protocol cells for one
// durability mode: a clean two-phase run, then phase-precise kills
// landing inside the prepare window, the in-doubt window (prepares
// durable, outcome not), right after the commit point, and mid-apply.
// The coordinator kills fail CPU 0 — the TMF primary's host, taking the
// in-flight commit coordinator down with it — because killing only the
// serve process would leave the spawned coordinator running. The
// participant kills target one shard's DP2 primary. Every kill strikes
// the seq-th cross-shard commit, so committed work exists on both sides
// of the fault.
func crossShardCells(d ods.Durability, seq int64) []FaultCell {
	coordKill := func(ph tmf.CommitPhase) faultinject.Plan {
		when := faultinject.Trigger{AtPhase: ph, AtSeq: seq}
		return faultinject.Plan{
			{Kind: faultinject.CPUFail, Target: 0, When: when},
			{Kind: faultinject.CPURestore, Target: 0,
				When: faultinject.Trigger{AtPhase: ph, AtSeq: seq, Delay: 300 * sim.Millisecond}},
		}
	}
	partKill := func(ph tmf.CommitPhase) faultinject.Plan {
		return faultinject.Plan{
			{Kind: faultinject.ProcessKill, Service: "$DP-TRADES-1",
				When: faultinject.Trigger{AtPhase: ph, AtSeq: seq}},
		}
	}
	cells := []FaultCell{
		{Fault: "xs-none", Phase: "-"},
		{Fault: "xs-coord", Phase: "prep", Plan: coordKill(tmf.PhasePrepareStart)},
		{Fault: "xs-coord", Phase: "indoubt", Plan: coordKill(tmf.PhasePrepared)},
		{Fault: "xs-coord", Phase: "postout", Plan: coordKill(tmf.PhaseOutcomeDurable)},
		{Fault: "xs-part", Phase: "prep", Plan: partKill(tmf.PhasePrepareStart)},
		{Fault: "xs-part", Phase: "apply", Plan: partKill(tmf.PhaseApplyStart)},
	}
	for i := range cells {
		cells[i].Durability = d
		cells[i].TwoPhase = true
	}
	return cells
}

// faultCells lists the matrix in table order: per durability one clean
// cell, every single fault at three points of the commit stream and the
// six cross-shard cells; then the chaos plans.
func faultCells(cfg FaultConfig) []FaultCell {
	// A fault strikes right after the first commit, halfway, or after the
	// last commit (while the final transaction is still in flight).
	phases := []struct {
		name  string
		after int64
	}{
		{"early", 1},
		{"mid", int64(cfg.Txns / 2)},
		{"late", int64(cfg.Txns)},
	}
	var cells []FaultCell
	for _, d := range []ods.Durability{ods.DiskDurability, ods.PMDurability, ods.PMDirectDurability} {
		cells = append(cells, FaultCell{Durability: d, Fault: "none", Phase: "-"})
		faults := []string{"cpufail", "pathfail", "prockill", "diskfail"}
		if d != ods.DiskDurability {
			faults = append(faults, "npmufail")
		}
		for _, f := range faults {
			for _, ph := range phases {
				cells = append(cells, FaultCell{
					Durability: d, Fault: f, Phase: ph.name,
					Plan: planFor(f, ph.after),
				})
			}
		}
		cells = append(cells, crossShardCells(d, int64(cfg.Txns/2))...)
	}
	// Chaos cells: plans drawn from the engine's derived rand stream, so
	// the same seed sweeps the same random faults. The workload CPU is
	// spared (it has no backup), and only one NPMU may fail (losing both
	// mirrors is a full PM outage, which §1.3 counts as a site disaster,
	// not a survivable fault).
	topo := faultinject.Topology{
		CPUs: 4, Paths: 2, NPMUs: 2, DataVolumes: 4,
		Services: []string{"$TMF", "$PM1", "$ADP0", "$ADP1", "$ADP2", "$ADP3",
			"$DP-TRADES-0", "$DP-TRADES-1", "$DP-TRADES-2", "$DP-TRADES-3"},
		SpareCPUs: []int{3},
	}
	horizon := cfg.Pace * sim.Time(cfg.Txns)
	for i := 0; i < cfg.Chaos; i++ {
		probe := sim.NewEngine(cfg.Seed + int64(i))
		plan := faultinject.RandomPlan(probe.DeriveRand("chaos"), topo, 2, horizon)
		cells = append(cells, FaultCell{
			Durability: ods.PMDurability, Fault: fmt.Sprintf("chaos%d", i), Phase: "-",
			Plan: plan,
		})
	}
	return cells
}

// FaultMatrix sweeps the matrix with the Runner's parallelism. Every cell
// is an independent simulation writing only its own slot, so verdicts —
// and every byte of Table and Violations — assemble identically at any
// parallelism.
func (r Runner) FaultMatrix(cfg FaultConfig) FaultMatrix {
	m := newFaultMatrix(cfg)
	r.forEach(len(m.Cells), m.run)
	return m
}

// newFaultMatrix lays the matrix out, no cell run yet.
func newFaultMatrix(cfg FaultConfig) FaultMatrix {
	mtbf := sim.Time(cfg.MTBFDays) * 24 * sim.Time(time.Hour)
	return FaultMatrix{Config: cfg, Budget: MTTRBudget(mtbf, cfg.Nines), Cells: faultCells(cfg)}
}

// MTTRBudget inverts §1.3's availability equation: the longest recovery
// time a component failing every mtbf may take while still delivering
// the given number of nines. From a = mtbf/(mtbf+mttr) and
// a = 1 - 10^-nines: mttr = mtbf/(10^nines - 1). The faults command
// holds each measured recovery against this budget — the paper's §1.3
// bar of "5 or more 9s" at a monthly failure rate allows ~26 s.
func MTTRBudget(mtbf sim.Time, nines int) sim.Time {
	if mtbf <= 0 || nines <= 0 {
		return 0
	}
	return sim.Time(float64(mtbf) / (math.Pow(10, float64(nines)) - 1))
}

// run crashes cell i's scenario and grades it in place.
func (m *FaultMatrix) run(i int) {
	c := &m.Cells[i]
	c.judge(m.Budget, faultinject.Run(faultinject.ScenarioConfig{
		Durability: c.Durability,
		Txns:       m.Config.Txns,
		Seed:       m.Config.Seed,
		Plan:       c.Plan,
		Pace:       m.Config.Pace,
		TwoPhase:   c.TwoPhase,
	}))
}

// judge recovers a crashed scenario and grades the cell: the
// ground-truth durability invariants, the MTTR budget, and the
// history-based atomicity/serializability checker — every cell runs the
// checker, not just the cross-shard ones.
func (c *FaultCell) judge(budget sim.Time, res *faultinject.Result) {
	rep, rb, err := res.Recover(recovery.Options{})
	if err != nil {
		c.Fails = append(c.Fails, fmt.Sprintf("recovery failed: %v", err))
	} else {
		c.Fails = res.Violations(rb)
		for _, hv := range res.CheckHistory(rb).Violations {
			c.Fails = append(c.Fails, "history: "+hv.String())
		}
		if rep.MTTR > budget {
			c.Fails = append(c.Fails, fmt.Sprintf("MTTR %v over the %v budget", rep.MTTR, budget))
		}
	}
	c.Resolved = rep.OutcomeResolved
	c.InDoubt = rep.InDoubt
	c.PairsLost = res.Injector.PairsLost
	c.Firings = len(res.Injector.Firings())
	c.Committed = len(res.Committed)
	c.TxnErrs = res.TxnErrs
	c.MTTR = rep.MTTR
	c.BytesRead = rep.BytesRead
	res.Store.Eng.Shutdown()
}

// Passed reports whether every cell held its invariants.
func (m FaultMatrix) Passed() bool {
	for _, c := range m.Cells {
		if len(c.Fails) > 0 {
			return false
		}
	}
	return true
}

// Table renders the matrix, one verdict per cell.
func (m FaultMatrix) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault matrix: %d cells, %d txns/cell, seed %d\n", len(m.Cells), m.Config.Txns, m.Config.Seed)
	fmt.Fprintf(&b, "MTTR budget: %v (%d nines at %d-day MTBF)\n\n", m.Budget, m.Config.Nines, m.Config.MTBFDays)
	fmt.Fprintf(&b, "%-9s %-9s %-8s %8s %10s %8s %8s %12s %12s  %s\n",
		"mode", "fault", "phase", "firings", "committed", "txnerrs", "2pc-r/a", "mttr", "bytesread", "verdict")
	failed := 0
	for _, c := range m.Cells {
		verdict := "PASS"
		if len(c.PairsLost) > 0 {
			verdict = "PASS (pair lost: " + strings.Join(c.PairsLost, ", ") + ")"
		}
		if len(c.Fails) > 0 {
			failed++
			verdict = "FAIL: " + c.Fails[0]
			if len(c.Fails) > 1 {
				verdict += fmt.Sprintf(" (+%d more)", len(c.Fails)-1)
			}
		}
		fmt.Fprintf(&b, "%-9s %-9s %-8s %8d %10d %8d %8s %12v %12d  %s\n",
			c.Durability, c.Fault, c.Phase, c.Firings, c.Committed, c.TxnErrs,
			fmt.Sprintf("%d/%d", c.Resolved, c.InDoubt), c.MTTR, c.BytesRead, verdict)
	}
	fmt.Fprintf(&b, "\n%d/%d cells passed\n", len(m.Cells)-failed, len(m.Cells))
	return b.String()
}

// Violations lists every cell's failed invariants and history-checker
// violations, one per line; empty proves the matrix ran clean.
func (m FaultMatrix) Violations() string {
	var b strings.Builder
	for _, c := range m.Cells {
		for _, f := range c.Fails {
			fmt.Fprintf(&b, "%s/%s/%s: %s\n", c.Durability, c.Fault, c.Phase, f)
		}
	}
	return b.String()
}
