package bench

import (
	"fmt"
	"strings"

	"persistmem/internal/ods"
	"persistmem/internal/recovery"
)

// ClaimC2 measures §3.4's MTTR claim: restart recovery time by path.
type ClaimC2 struct {
	Txns int
	// Paths holds one measurement per recovery path: disk scan, PM scan
	// without TCBs, PM with TCBs, and PM direct (§3.4's end vision: DP2s
	// persist rows in their own PM logs, no ADP) with TCBs.
	Paths [4]C2Path
}

// C2Path is one recovery path's measurement.
type C2Path struct {
	Name   string
	Report recovery.Report
	// Rows is the size of the rebuilt committed image.
	Rows int
	// Err is the workload or recovery failure that left Report and Rows
	// zero.
	Err error
}

// c2Paths are the four recovery paths, in table order.
var c2Paths = [4]struct {
	name   string
	d      ods.Durability
	useTCB bool
}{
	{"disk audit, log scan", ods.DiskDurability, false},
	{"PM audit, log scan (no TCB)", ods.PMDurability, false},
	{"PM audit + fine-grained TCBs", ods.PMDurability, true},
	{"PM direct + fine-grained TCBs", ods.PMDirectDurability, true},
}

// ClaimC2 crashes a store with the scale's transaction count committed and
// one in flight, once per recovery path, and recovers it. The four
// scenarios are independent cells run with the Runner's parallelism.
func (r Runner) ClaimC2(seed int64, scale Scale) ClaimC2 {
	txns := max(scale.RecordsPerDriver/8, 20)
	c := ClaimC2{Txns: txns}
	r.forEach(len(c.Paths), func(i int) {
		path := c2Paths[i]
		p := &c.Paths[i]
		p.Name = path.name
		res := recovery.RunScenario(path.d, txns, seed)
		defer res.Store.Eng.Shutdown()
		if len(res.Errs) > 0 {
			p.Err = fmt.Errorf("%s: workload failed before the crash: %v", path.name, res.Errs)
			return
		}
		var (
			rep recovery.Report
			rb  *recovery.Rebuilt
			err error
		)
		if path.d == ods.DiskDurability {
			rep, rb, err = res.RecoverDisk(recovery.Options{})
		} else {
			rep, rb, err = res.RecoverPM(recovery.Options{}, path.useTCB)
		}
		if err != nil {
			p.Err = fmt.Errorf("%s: recovery: %w", path.name, err)
			return
		}
		p.Report, p.Rows = rep, rb.Rows()
	})
	return c
}

// RowsAgree reports whether all four paths rebuilt the same committed
// image; a path that failed agrees with nothing.
func (c ClaimC2) RowsAgree() bool {
	for _, p := range c.Paths {
		if p.Err != nil || p.Rows != c.Paths[0].Rows {
			return false
		}
	}
	return true
}

// Table renders the MTTR comparison.
func (c ClaimC2) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Claim C2: MTTR after a crash with %d committed txns + 1 in flight\n", c.Txns)
	fmt.Fprintf(&b, "%-30s %12s %10s %10s\n", "recovery path", "MTTR", "read KB", "records")
	for _, p := range c.Paths {
		fmt.Fprintf(&b, "%-30s %12v %10d %10d\n", p.Name, p.Report.MTTR, p.Report.BytesRead/1024, p.Report.RecordsScanned)
	}
	fmt.Fprintf(&b, "images agree: %v\n", c.RowsAgree())
	return b.String()
}

// CheckShape verifies the claim's direction: PM recovery beats disk, TCBs
// cut the records examined and are read on both TCB paths, and all paths
// rebuild the same image.
func (c ClaimC2) CheckShape() []error {
	var errs []error
	for _, p := range c.Paths {
		if p.Err != nil {
			errs = append(errs, fmt.Errorf("claimC2: %w", p.Err))
		}
	}
	if !c.RowsAgree() {
		errs = append(errs, fmt.Errorf("claimC2: recovered images disagree"))
	}
	disk, noTCB, tcb := c.Paths[0].Report, c.Paths[1].Report, c.Paths[2].Report
	if tcb.MTTR >= disk.MTTR {
		errs = append(errs, fmt.Errorf("claimC2: PM+TCB MTTR (%v) not below disk (%v)", tcb.MTTR, disk.MTTR))
	}
	if tcb.RecordsScanned >= noTCB.RecordsScanned {
		errs = append(errs, fmt.Errorf("claimC2: TCBs did not reduce records scanned (%d vs %d)",
			tcb.RecordsScanned, noTCB.RecordsScanned))
	}
	for _, p := range c.Paths[2:] {
		if !p.Report.UsedTCB {
			errs = append(errs, fmt.Errorf("claimC2: %s did not use the TCB region", p.Name))
		}
	}
	return errs
}
