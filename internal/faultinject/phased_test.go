package faultinject

import (
	"strings"
	"testing"

	"persistmem/internal/ods"
	"persistmem/internal/recovery"
	"persistmem/internal/sim"
	"persistmem/internal/tmf"
)

func TestPhasedFaultString(t *testing.T) {
	f := Fault{Kind: CPUFail, Target: 0, When: Trigger{AtPhase: tmf.PhasePrepared, AtSeq: 2}}
	if got := f.String(); got != "cpufail(0)@prepared" {
		t.Errorf("Fault.String() = %q", got)
	}
	pk := Fault{Kind: ProcessKill, Service: "$DP-TRADES-1", When: Trigger{AtPhase: tmf.PhaseApplyStart}}
	if got := pk.String(); got != "prockill($DP-TRADES-1)@apply-start" {
		t.Errorf("Fault.String() = %q", got)
	}
}

// A faultless cross-shard run must produce a history the atomicity/
// serializability checker accepts, with every workload transaction
// committing under the two-phase protocol.
func TestCrossShardCleanRunHistoryChecks(t *testing.T) {
	for _, d := range []ods.Durability{ods.DiskDurability, ods.PMDurability, ods.PMDirectDurability} {
		t.Run(d.String(), func(t *testing.T) {
			res := Run(ScenarioConfig{Durability: d, Txns: 5, Seed: 3, TwoPhase: true})
			if res.TxnErrs != 0 {
				t.Fatalf("faultless cross-shard run had %d errors", res.TxnErrs)
			}
			_, rb, err := res.Recover(recovery.Options{})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if hv := res.CheckHistory(rb); !hv.Ok() {
				t.Errorf("checker rejected a clean cross-shard history: %v", hv.Violations)
			}
			if res.History.Len() == 0 || len(res.Ops) == 0 {
				t.Errorf("recorder empty: %d events, %d ops", res.History.Len(), len(res.Ops))
			}
			res.Store.Eng.Shutdown()
		})
	}
}

// A phase-triggered coordinator kill must land inside the in-doubt
// window — and the checker must still certify the surviving state.
func TestPhasedTriggerKillsInsideWindow(t *testing.T) {
	plan := Plan{
		{Kind: CPUFail, Target: 0, When: Trigger{AtPhase: tmf.PhasePrepared, AtSeq: 2}},
		{Kind: CPURestore, Target: 0, When: Trigger{AtPhase: tmf.PhasePrepared, AtSeq: 2, Delay: 300 * sim.Millisecond}},
	}
	res := Run(ScenarioConfig{Durability: ods.PMDurability, Txns: 6, Seed: 7,
		Plan: plan, Pace: 50 * sim.Millisecond, TwoPhase: true})
	if got := len(res.Injector.Firings()); got != 2 {
		t.Fatalf("fired %d faults, want 2: %v", got, res.Injector.Firings())
	}
	if !strings.Contains(res.Injector.Firings()[0].String(), "@prepared") {
		t.Errorf("firing log lost the phase tag: %v", res.Injector.Firings()[0])
	}
	_, rb, err := res.Recover(recovery.Options{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if v := res.Violations(rb); len(v) > 0 {
		t.Errorf("invariant violations: %v", v)
	}
	if hv := res.CheckHistory(rb); !hv.Ok() {
		t.Errorf("checker rejected the in-doubt-window history: %v", hv.Violations)
	}
	res.Store.Eng.Shutdown()
}

// The fault matrix's xs-part/apply cell kills a participant mid-apply: the
// session files that commit unresolved while the monitor is still working
// on it. The monitor's later commit-path marks must open no table of their
// own, so at the crash the stream's open tables are exactly the one
// transaction the workload left in flight, as the ledger counts it.
func TestApplyKillLeavesNoOrphanTable(t *testing.T) {
	for _, d := range []ods.Durability{ods.DiskDurability, ods.PMDurability, ods.PMDirectDurability} {
		for seed := int64(1); seed <= 3; seed++ {
			res := Run(ScenarioConfig{Durability: d, Txns: 8, Seed: seed, Pace: 20 * sim.Millisecond, TwoPhase: true,
				Plan: Plan{{Kind: ProcessKill, Service: "$DP-TRADES-1", When: Trigger{AtPhase: tmf.PhaseApplyStart, AtSeq: 4}}}})
			ts := res.Metrics.Commit
			inFlight := ts.Begun.Value() - ts.Committed.Value() - ts.Aborted.Value() - ts.Unresolved.Value()
			if len(res.Injector.Firings()) != 1 || ts.Unresolved.Value() == 0 {
				t.Errorf("%v seed %d: %d firings, %d unresolved: the kill must cost a commit its outcome",
					d, seed, len(res.Injector.Firings()), ts.Unresolved.Value())
			}
			if ts.Open() != 1 || inFlight != 1 {
				t.Errorf("%v seed %d: %d open tables, ledger in flight %d, want 1 and 1", d, seed, ts.Open(), inFlight)
			}
			res.Store.Eng.Shutdown()
		}
	}
}

// A phased fault whose two-phase sequence number never occurs must stay
// armed and silent — the run is indistinguishable from an uninjected one.
func TestPhasedTriggerUnmatchedSeqNeverFires(t *testing.T) {
	plan := Plan{{Kind: CPUFail, Target: 0, When: Trigger{AtPhase: tmf.PhasePrepared, AtSeq: 99}}}
	res := Run(ScenarioConfig{Durability: ods.PMDurability, Txns: 4, Seed: 5, Plan: plan, TwoPhase: true})
	if got := len(res.Injector.Firings()); got != 0 {
		t.Errorf("unmatched phased fault fired: %v", res.Injector.Firings())
	}
	if res.TxnErrs != 0 {
		t.Errorf("unfired plan perturbed the run: %d errors", res.TxnErrs)
	}
	res.Store.Eng.Shutdown()
}

func TestTopologyOfScenarioStore(t *testing.T) {
	res := Run(ScenarioConfig{Durability: ods.PMDurability, Txns: 1, Seed: 1})
	topo := TopologyOf(res.Store)
	if topo.CPUs == 0 || topo.NPMUs != 2 || topo.DataVolumes != 4 {
		t.Errorf("topology = %+v", topo)
	}
	found := false
	for _, svc := range topo.Services {
		if svc == "$TMF" {
			found = true
		}
	}
	if !found {
		t.Errorf("topology services missing $TMF: %v", topo.Services)
	}
	res.Store.Eng.Shutdown()
}
