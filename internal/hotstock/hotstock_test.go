package hotstock

import (
	"testing"

	"persistmem/internal/ods"
	"persistmem/internal/sim"
)

// quickParams is a scaled-down hot-stock shape for tests.
func quickParams(drivers, insertsPerTxn int) Params {
	return Params{
		Drivers:          drivers,
		RecordsPerDriver: insertsPerTxn * 10, // 10 transactions
		InsertsPerTxn:    insertsPerTxn,
	}
}

func TestRunCompletesAllTransactions(t *testing.T) {
	for _, d := range []ods.Durability{ods.DiskDurability, ods.PMDurability} {
		t.Run(d.String(), func(t *testing.T) {
			opts := ods.DefaultOptions()
			opts.Durability = d
			r := Run(opts, quickParams(2, 8))
			for _, dr := range r.Drivers {
				if dr.Txns != 10 {
					t.Errorf("driver %d committed %d txns, want 10 (errors=%d)", dr.Driver, dr.Txns, dr.Errors)
				}
				if dr.Errors != 0 {
					t.Errorf("driver %d saw %d errors", dr.Driver, dr.Errors)
				}
				if dr.MeanResp <= 0 || dr.P95Resp < dr.MeanResp/2 || dr.MaxResp < dr.P95Resp {
					t.Errorf("driver %d response stats inconsistent: %+v", dr.Driver, dr)
				}
			}
			if r.Elapsed <= 0 {
				t.Error("zero elapsed time")
			}
			if r.Throughput() <= 0 {
				t.Error("zero throughput")
			}
		})
	}
}

func TestPMBeatsDiskAtSmallBoxcar(t *testing.T) {
	// The paper's headline: at 32K transactions PM wins clearly.
	opts := ods.DefaultOptions()
	opts.Durability = ods.DiskDurability
	diskR := Run(opts, quickParams(1, 8))
	opts.Durability = ods.PMDurability
	pmR := Run(opts, quickParams(1, 8))
	if pmR.MeanResp() >= diskR.MeanResp() {
		t.Errorf("PM mean resp %v not better than disk %v", pmR.MeanResp(), diskR.MeanResp())
	}
	speedup := float64(diskR.MeanResp()) / float64(pmR.MeanResp())
	t.Logf("1 driver, 32K txns: disk=%v pm=%v speedup=%.2f", diskR.MeanResp(), pmR.MeanResp(), speedup)
	if speedup < 1.5 {
		t.Errorf("speedup %.2f too small; the storage gap is not being exercised", speedup)
	}
}

func TestDiskDegradesAsBoxcarShrinks(t *testing.T) {
	// Figure 2's left side: smaller boxcars mean more commits for the
	// same data, so disk throughput (records/sec) collapses.
	opts := ods.DefaultOptions()
	recPerSec := func(inserts int) float64 {
		p := Params{Drivers: 1, RecordsPerDriver: 320, InsertsPerTxn: inserts}
		r := Run(opts, p)
		return float64(p.RecordsPerDriver) / r.Elapsed.Seconds()
	}
	small := recPerSec(8)
	large := recPerSec(32)
	if small >= large {
		t.Errorf("disk record rate at 32K boxcar (%.0f/s) should be below 128K (%.0f/s)", small, large)
	}
}

func TestPMInsensitiveToBoxcar(t *testing.T) {
	// Figure 2's PM lines: throughput "virtually unaffected" by boxcar.
	opts := ods.DefaultOptions()
	opts.Durability = ods.PMDurability
	recPerSec := func(inserts int) float64 {
		p := Params{Drivers: 1, RecordsPerDriver: 320, InsertsPerTxn: inserts}
		r := Run(opts, p)
		return float64(p.RecordsPerDriver) / r.Elapsed.Seconds()
	}
	small := recPerSec(8)
	large := recPerSec(32)
	ratio := large / small
	if ratio > 2.0 {
		t.Errorf("PM record rate varies %.2fx across boxcar sizes; should be nearly flat", ratio)
	}
}

func TestDeterministicResults(t *testing.T) {
	opts := ods.DefaultOptions()
	a := Run(opts, quickParams(2, 8))
	b := Run(opts, quickParams(2, 8))
	if a.Elapsed != b.Elapsed {
		t.Errorf("elapsed differs across identical runs: %v vs %v", a.Elapsed, b.Elapsed)
	}
	for i := range a.Drivers {
		if a.Drivers[i].MeanResp != b.Drivers[i].MeanResp {
			t.Errorf("driver %d mean resp differs: %v vs %v", i,
				a.Drivers[i].MeanResp, b.Drivers[i].MeanResp)
		}
	}
}

// TestPoisonedTxnSendsNoMoreInserts: an insert to a stopped DP2 reaches no
// DP2 and poisons its transaction, so the driver sends that DP2 one insert,
// not perFile, sends none to the files after it, and goes straight to Commit,
// which aborts. The skipped keys are still used up: the next transaction's
// rows go where a run without the failure would put them.
func TestPoisonedTxnSendsNoMoreInserts(t *testing.T) {
	opts := ods.DefaultOptions()
	opts.Files = []ods.FileSpec{
		{Name: "FILE0", Partitions: 4},
		{Name: "STOPPED", Partitions: 1},
		{Name: "AFTER", Partitions: 1},
	}
	params := Params{Drivers: 1, RecordsPerDriver: 18, InsertsPerTxn: 6}
	s := ods.Build(opts)
	defer s.Shutdown()
	s.DP2s[s.DP2Name("STOPPED", 0)].Stop()
	r := RunOn(s, params)

	const txns, perFile = 3, 2
	if d := r.Drivers[0]; d.Txns != 0 || d.Errors != txns {
		t.Errorf("driver committed %d and failed %d, want 0 and %d", d.Txns, d.Errors, txns)
	}
	if st := s.TMF.Stats(); st.Aborts != txns {
		t.Errorf("the monitor aborted %d transactions, want %d", st.Aborts, txns)
	}
	if n := s.DP2s[s.DP2Name("AFTER", 0)].Stats().Inserts; n != 0 {
		t.Errorf("the file after the stopped one received %d inserts, want none", n)
	}
	// FILE0's keys of transaction k are 1+6k and 2+6k, whatever failed in k-1.
	want := make([]int64, s.Partitions("FILE0"))
	for k := uint64(0); k < txns; k++ {
		for i := uint64(0); i < perFile; i++ {
			want[s.PartitionOf("FILE0", 1+6*k+i)]++
		}
	}
	for part, n := range want {
		if got := s.DP2s[s.DP2Name("FILE0", part)].Stats().Inserts; got != n {
			t.Errorf("FILE0 partition %d received %d inserts, want %d: a key moved", part, got, n)
		}
	}
}

func TestValidate(t *testing.T) {
	mustPanic := func(name string, p Params) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		p.Validate(4)
	}
	mustPanic("zero drivers", Params{Drivers: 0, InsertsPerTxn: 8, RecordsPerDriver: 80})
	mustPanic("uneven files", Params{Drivers: 1, InsertsPerTxn: 6, RecordsPerDriver: 60})
	mustPanic("uneven txns", Params{Drivers: 1, InsertsPerTxn: 8, RecordsPerDriver: 81})
}

func TestTxnKB(t *testing.T) {
	for _, c := range []struct{ inserts, kb int }{{8, 32}, {16, 64}, {32, 128}} {
		if got := TxnKB(c.inserts); got != c.kb {
			t.Errorf("TxnKB(%d) = %d, want %d", c.inserts, got, c.kb)
		}
	}
}

func TestResponseTimesMillisecondScaleOnDisk(t *testing.T) {
	opts := ods.DefaultOptions()
	r := Run(opts, quickParams(1, 8))
	if r.MeanResp() < sim.Millisecond {
		t.Errorf("disk response time %v implausibly fast", r.MeanResp())
	}
	if r.MeanResp() > 200*sim.Millisecond {
		t.Errorf("disk response time %v implausibly slow", r.MeanResp())
	}
}
