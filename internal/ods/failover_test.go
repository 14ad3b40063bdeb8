package ods

import (
	"sort"
	"testing"

	"persistmem/internal/cluster"
	"persistmem/internal/metrics"
	"persistmem/internal/sim"
)

// TestCPUFailTakeoverRebackupWithMetricsAndHistory: a store built with a
// metrics registry and a transaction-history recorder survives a whole
// CPU failing — every pair with its primary there takes over, commits
// resume, the reloaded CPU is re-paired with Rebackup, and the
// instruments stay consistent through all of it.
func TestCPUFailTakeoverRebackupWithMetricsAndHistory(t *testing.T) {
	opts := smallOptions(PMDurability)
	opts.Metrics = metrics.NewRegistry()
	hist := opts.Metrics.EnableHistory()
	s := Build(opts)

	pairs := []*cluster.Pair{s.TMF.Pair(), s.PMM.Pair()}
	for _, a := range s.ADPs {
		pairs = append(pairs, a.Pair())
	}
	names := make([]string, 0, len(s.DP2s))
	for name := range s.DP2s {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pairs = append(pairs, s.DP2s[name].Pair())
	}

	const failed = 1
	var wantTakeover []*cluster.Pair
	for _, pr := range pairs {
		if pr.PrimaryCPU() == failed {
			wantTakeover = append(wantTakeover, pr)
		}
	}
	if len(wantTakeover) == 0 {
		t.Fatalf("no service pair has its primary on CPU %d; the test would be vacuous", failed)
	}

	commit := func(se *Session, key uint64, body string) bool {
		deadline := se.p.Now() + 10*sim.Second
		for se.p.Now() < deadline {
			txn, err := se.Begin()
			if err == nil {
				txn.InsertAsync("TRADES", key, []byte(body))
				txn.InsertAsync("ORDERS", key, []byte(body))
				if err = txn.Commit(); err == nil {
					return true
				}
			}
			se.p.Wait(50 * sim.Millisecond)
		}
		return false
	}
	keys := []uint64{1, 2, 3, 4, 101, 102, 103, 104, 201, 202}
	runClient(s, func(se *Session) {
		for _, k := range keys[:4] {
			if !commit(se, k, "before") {
				t.Fatalf("commit %d before the failure never succeeded", k)
			}
		}
		before := hist.Len()

		s.Cl.CPU(failed).Fail()
		se.p.Wait(s.Cl.Config().TakeoverDelay + 100*sim.Millisecond)
		for _, pr := range wantTakeover {
			if pr.Takeovers != 1 || pr.PrimaryCPU() == failed {
				t.Errorf("%s: takeovers=%d primary on CPU %d after CPU %d failed",
					pr.Name(), pr.Takeovers, pr.PrimaryCPU(), failed)
			}
			if pr.Protected() {
				t.Errorf("%s still reports a live backup right after takeover", pr.Name())
			}
		}
		for _, k := range keys[4:8] {
			if !commit(se, k, "degraded") {
				t.Fatalf("commit %d after takeover never succeeded", k)
			}
		}

		s.Cl.CPU(failed).Restore()
		for _, pr := range pairs {
			if !pr.Protected() {
				pr.Rebackup(failed)
			}
		}
		se.p.Wait(10 * sim.Millisecond)
		for _, pr := range pairs {
			if !pr.Protected() {
				t.Errorf("%s unprotected after Rebackup", pr.Name())
			}
		}
		for _, k := range keys[8:] {
			if !commit(se, k, "repaired") {
				t.Fatalf("commit %d after Rebackup never succeeded", k)
			}
		}
		for _, k := range keys {
			for _, f := range []string{"TRADES", "ORDERS"} {
				if _, err := se.ReadBrowse(f, k); err != nil {
					t.Errorf("read %s/%d after the round trip: %v", f, k, err)
				}
			}
		}
		if hist.Len() <= before {
			t.Errorf("history recorded nothing after the failure: %d events before, %d after", before, hist.Len())
		}
	})
	for _, err := range opts.Metrics.CheckConservation() {
		t.Errorf("conservation: %v", err)
	}
	s.Shutdown()
}
