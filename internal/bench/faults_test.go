package bench

import (
	"fmt"
	"strings"
	"testing"

	"persistmem/internal/faultinject"
	"persistmem/internal/ods"
	"persistmem/internal/recovery"
	"persistmem/internal/sim"
	"persistmem/internal/tmf"
)

// TestFaultCellsDeterministicAcrossParallelism: fault-matrix cells — a
// CPU loss, a process kill and a coordinator kill inside the two-phase
// in-doubt window, in every durability mode — crash, recover and grade
// to the same bytes on one pool worker and on eight. cmd/faults rides on
// this; under -race it also shows the cells share nothing.
func TestFaultCellsDeterministicAcrossParallelism(t *testing.T) {
	after := faultinject.Trigger{AfterCommits: 3}
	restore := faultinject.Trigger{AfterCommits: 3, Delay: 300 * sim.Millisecond}
	inDoubt := faultinject.Trigger{AtPhase: tmf.PhasePrepared, AtSeq: 2}
	inDoubtRestore := inDoubt
	inDoubtRestore.Delay = 300 * sim.Millisecond
	var cfgs []faultinject.ScenarioConfig
	for _, d := range []ods.Durability{ods.DiskDurability, ods.PMDurability, ods.PMDirectDurability} {
		base := faultinject.ScenarioConfig{Durability: d, Txns: 6, Seed: 1, Pace: 20 * sim.Millisecond}
		cpu, kill, coord := base, base, base
		cpu.Plan = faultinject.Plan{
			{Kind: faultinject.CPUFail, Target: 0, When: after},
			{Kind: faultinject.CPURestore, Target: 0, When: restore},
		}
		kill.Plan = faultinject.Plan{{Kind: faultinject.ProcessKill, Service: "$TMF", When: after}}
		coord.TwoPhase = true
		coord.Plan = faultinject.Plan{
			{Kind: faultinject.CPUFail, Target: 0, When: inDoubt},
			{Kind: faultinject.CPURestore, Target: 0, When: inDoubtRestore},
		}
		cfgs = append(cfgs, cpu, kill, coord)
	}
	run := func(parallelism int) []string {
		out := make([]string, len(cfgs))
		ForEach(parallelism, len(cfgs), func(i int) {
			res := faultinject.Run(cfgs[i])
			rep, rb, err := res.Recover(recovery.Options{})
			if err != nil {
				out[i] = "recovery failed: " + err.Error()
				return
			}
			out[i] = fmt.Sprintf("firings=%v committed=%v inflight=%v unresolved=%v errs=%d viol=%v hist=%v mttr=%v read=%d resolved=%d indoubt=%d",
				res.Injector.Firings(), res.Committed, res.InFlight, res.Unresolved, res.TxnErrs,
				res.Violations(rb), res.CheckHistory(rb).Violations,
				rep.MTTR, rep.BytesRead, rep.OutcomeResolved, rep.InDoubt)
			res.Store.Shutdown()
		})
		return out
	}
	seq, par := run(1), run(8)
	for i := range cfgs {
		if seq[i] != par[i] {
			t.Errorf("cell %d diverged across parallelism:\n  1: %s\n  8: %s", i, seq[i], par[i])
		}
		if !strings.HasPrefix(seq[i], "firings=[") || strings.HasPrefix(seq[i], "firings=[]") {
			t.Errorf("cell %d fired no fault, so its differential is vacuous: %s", i, seq[i])
		}
	}
}
