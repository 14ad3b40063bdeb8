package bench

import (
	"errors"
	"strings"
	"testing"

	"persistmem/internal/recovery"
	"persistmem/internal/sim"
)

func TestFigure1ShapeAtSmokeScale(t *testing.T) {
	f := Runner{}.Figure1(1, Smoke)
	for _, err := range f.CheckShape() {
		t.Error(err)
	}
	tbl := f.Table()
	if !strings.Contains(tbl, "32k") || !strings.Contains(tbl, "128k") {
		t.Errorf("table missing size labels:\n%s", tbl)
	}
	t.Logf("\n%s", tbl)
}

func TestFigure2ShapeAtSmokeScale(t *testing.T) {
	f := Runner{}.Figure2(1, Smoke)
	for _, err := range f.CheckShape() {
		t.Error(err)
	}
	t.Logf("\n%s", f.Table())
}

func TestFigure1CSV(t *testing.T) {
	f := Runner{}.Figure1(1, Scale{Name: "tiny", RecordsPerDriver: 64})
	csv := f.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+3*4 {
		t.Errorf("CSV has %d lines, want 13:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "txn_size_kb,drivers,speedup") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestFigure2CSV(t *testing.T) {
	f := Runner{}.Figure2(1, Scale{Name: "tiny", RecordsPerDriver: 64})
	lines := strings.Split(strings.TrimSpace(f.CSV()), "\n")
	if len(lines) != 1+3*4 {
		t.Errorf("CSV has %d lines, want 13", len(lines))
	}
}

func TestClaimC1Shape(t *testing.T) {
	c := RunClaimC1(1)
	for _, err := range c.CheckShape() {
		t.Error(err)
	}
	t.Logf("\n%s", c.Table())
}

func TestClaimC2Shape(t *testing.T) {
	c := Runner{}.ClaimC2(1, Smoke)
	for _, err := range c.CheckShape() {
		t.Error(err)
	}
	t.Logf("\n%s", c.Table())
}

// TestClaimC2CheckShapeDetectsBreaks feeds CheckShape a healthy synthetic
// result and then each way the claim can break.
func TestClaimC2CheckShapeDetectsBreaks(t *testing.T) {
	healthy := func() ClaimC2 {
		c := ClaimC2{Txns: 20}
		c.Paths[0] = C2Path{Name: "disk", Rows: 80, Report: recovery.Report{MTTR: 140 * sim.Millisecond, RecordsScanned: 180}}
		c.Paths[1] = C2Path{Name: "pm", Rows: 80, Report: recovery.Report{MTTR: 80 * sim.Millisecond, RecordsScanned: 180}}
		c.Paths[2] = C2Path{Name: "pm+tcb", Rows: 80, Report: recovery.Report{MTTR: 75 * sim.Millisecond, RecordsScanned: 80, UsedTCB: true}}
		c.Paths[3] = C2Path{Name: "pm-direct+tcb", Rows: 80, Report: recovery.Report{MTTR: 78 * sim.Millisecond, RecordsScanned: 84, UsedTCB: true}}
		return c
	}
	if errs := healthy().CheckShape(); len(errs) != 0 {
		t.Fatalf("healthy synthetic result rejected: %v", errs)
	}
	breaks := map[string]func(*ClaimC2){
		"a path failed":             func(c *ClaimC2) { c.Paths[1] = C2Path{Name: "pm", Err: errors.New("log unreadable")} },
		"images disagree":           func(c *ClaimC2) { c.Paths[2].Rows = 76 },
		"PM no faster than disk":    func(c *ClaimC2) { c.Paths[2].Report.MTTR = c.Paths[0].Report.MTTR },
		"TCBs scan as many records": func(c *ClaimC2) { c.Paths[2].Report.RecordsScanned = 180 },
		"TCB region unused":         func(c *ClaimC2) { c.Paths[2].Report.UsedTCB = false },
		"PM direct's image differs": func(c *ClaimC2) { c.Paths[3].Rows = 76 },
		"PM direct read no TCBs":    func(c *ClaimC2) { c.Paths[3].Report.UsedTCB = false },
	}
	for name, mutate := range breaks {
		c := healthy()
		mutate(&c)
		if errs := c.CheckShape(); len(errs) == 0 {
			t.Errorf("%s: CheckShape saw nothing wrong", name)
		}
	}
}

func TestClaimC3Shape(t *testing.T) {
	c := Runner{}.ClaimC3(1, Smoke)
	for _, err := range c.CheckShape() {
		t.Error(err)
	}
	if c.Rows == 0 {
		t.Fatal("no rows inserted")
	}
	t.Logf("\n%s", c.Table())
}

func TestAblationA1Shape(t *testing.T) {
	a := Runner{}.AblationA1(1, Smoke)
	for _, err := range a.CheckShape() {
		t.Error(err)
	}
	t.Logf("\n%s", a.Table())
}

func TestAblationA2Shape(t *testing.T) {
	a := Runner{}.AblationA2(1, Smoke)
	for _, err := range a.CheckShape() {
		t.Error(err)
	}
	t.Logf("\n%s", a.Table())
}

func TestAblationA4Shape(t *testing.T) {
	a := Runner{}.AblationA4(1, Smoke)
	for _, err := range a.CheckShape() {
		t.Error(err)
	}
	t.Logf("\n%s", a.Table())
}

func TestAblationA3Shape(t *testing.T) {
	a := Runner{}.AblationA3(1, Smoke)
	for _, err := range a.CheckShape() {
		t.Error(err)
	}
	t.Logf("\n%s", a.Table())
}
