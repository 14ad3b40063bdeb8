package ods

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"persistmem/internal/cluster"
	"persistmem/internal/metrics"
	"persistmem/internal/sim"
)

// TestCPUFailTakeoverRebackupWithMetricsAndHistory: a store built with a
// metrics registry and protocol-event retention survives a whole
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
		se.p.Wait(cluster.TakeoverDelay + 100*sim.Millisecond)
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

// TestFailedSendPoisonsTxn: while a failed CPU's names are out of the
// registry (the backup is TakeoverDelay from registering them) an
// InsertAsync to a DP2 that lived there never reaches an inbox. The
// scenario workloads drop that error, so the transaction must remember it:
// Commit aborts and reports it instead of committing a transaction that is
// missing a write, the ledger files an abort, and the next Begin starts
// clean. Without the poison the first Commit below returns nil.
func TestFailedSendPoisonsTxn(t *testing.T) {
	opts := smallOptions(PMDurability)
	opts.Metrics = metrics.NewRegistry()
	s := Build(opts)

	const key = 7
	name := s.DP2Name("TRADES", s.PartitionOf("TRADES", key))
	cpu := s.DP2s[name].Pair().PrimaryCPU()
	if cpu == s.TMF.Pair().PrimaryCPU() {
		t.Fatalf("%s shares CPU %d with the TMF primary; Begin would fail before the insert does", name, cpu)
	}
	runClient(s, func(se *Session) {
		s.Cl.CPU(cpu).Fail()
		txn, err := se.Begin()
		if err != nil {
			t.Fatalf("Begin with CPU %d down: %v", cpu, err)
		}
		sendErr := txn.InsertAsync("TRADES", key, []byte("lost"))
		if sendErr == nil {
			t.Fatalf("InsertAsync reached %s on failed CPU %d", name, cpu)
		}
		txn.InsertAsync("TRADES", key+2, []byte("lost too")) // same partition; the first error is the one kept
		err = txn.Commit()
		if !errors.Is(err, ErrInsertFailed) || !strings.Contains(err.Error(), sendErr.Error()) {
			t.Fatalf("Commit after a failed send = %v, want ErrInsertFailed wrapping %q", err, sendErr)
		}
		if err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
			t.Errorf("second Commit = %v, want ErrTxnDone (the first aborted)", err)
		}
		if a := opts.Metrics.Commit.Aborted.Value(); a != 1 {
			t.Errorf("ledger aborted = %d, want 1", a)
		}

		se.p.Wait(cluster.TakeoverDelay + 100*sim.Millisecond)
		txn, err = se.Begin()
		if err != nil {
			t.Fatalf("Begin after takeover: %v", err)
		}
		if err := txn.InsertAsync("TRADES", key, []byte("kept")); err != nil {
			t.Fatalf("InsertAsync after takeover: %v", err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("Commit after takeover inherited the poison: %v", err)
		}
		if body, err := se.ReadBrowse("TRADES", key); err != nil || string(body) != "kept" {
			t.Errorf("row after the clean commit = %q, %v", body, err)
		}
	})
	for _, err := range opts.Metrics.CheckConservation() {
		t.Errorf("conservation: %v", err)
	}
	s.Shutdown()
}

// TestUnknownFilePoisonsTxn: the other way an InsertAsync can lose its
// write before any DP2 sees it.
func TestUnknownFilePoisonsTxn(t *testing.T) {
	s := Build(smallOptions(DiskDurability))
	runClient(s, func(se *Session) {
		txn, err := se.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.InsertAsync("NOSUCH", 1, []byte("x")); !errors.Is(err, ErrUnknownFile) {
			t.Fatalf("InsertAsync into an unconfigured file = %v, want ErrUnknownFile", err)
		}
		if err := txn.Commit(); !errors.Is(err, ErrInsertFailed) {
			t.Errorf("Commit = %v, want ErrInsertFailed", err)
		}
	})
	s.Shutdown()
}
