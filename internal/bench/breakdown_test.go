package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"persistmem/internal/metrics"
	"persistmem/internal/ods"
	"persistmem/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden byte-compares got against the checked-in testdata file, or
// rewrites the file under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./internal/bench -run %s -update`): %v", t.Name(), err)
	}
	if got != string(want) {
		t.Errorf("drifted from golden %s:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestBreakdownGolden byte-compares the disk and PM commit-latency
// decomposition tables at a fixed seed against checked-in goldens. Any
// change to commit-path timing or to the span instrumentation shows up
// here as a diff — regenerate deliberately with -update.
func TestBreakdownGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    ods.Durability
	}{
		{"breakdown_disk.golden", ods.DiskDurability},
		{"breakdown_pm.golden", ods.PMDurability},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := Breakdown{Scale: Smoke, Rows: []BreakdownRow{runBreakdownOne(1, tc.d, Smoke)}}
			golden(t, tc.name, b.Table())
		})
	}
}

// TestBreakdownShape runs the full three-config sweep at smoke scale and
// asserts its structural checks: exact tiling, clean folds, conservation,
// and the disk-dominant / PM-shrunken flush shares.
func TestBreakdownShape(t *testing.T) {
	b := Runner{}.Breakdown(1, Smoke)
	for _, err := range b.CheckShape() {
		t.Error(err)
	}
	if b.CSV() == "" || b.Table() == "" {
		t.Fatal("empty rendering")
	}
}

// TestBreakdownCheckShapeDetectsBreaks feeds CheckShape a healthy synthetic
// decomposition, shaped like the smoke-scale goldens, and then each way it
// can break; every break must be reported by the check written for it.
func TestBreakdownCheckShapeDetectsBreaks(t *testing.T) {
	row := func(d ods.Durability, sums map[string]sim.Time) BreakdownRow {
		r := BreakdownRow{Durability: d, Total: metrics.PhaseStat{Name: "total"}}
		for _, name := range metrics.PhaseNames {
			r.Phases = append(r.Phases, metrics.PhaseStat{Name: name, Sum: sums[name]})
			r.Total.Sum += sums[name]
		}
		return r
	}
	healthy := func() Breakdown {
		return Breakdown{Scale: Smoke, Rows: []BreakdownRow{
			row(ods.DiskDurability, map[string]sim.Time{"issue": 1000, "flush-data": 6700, "commit-record": 4600, "lock-release": 500}),
			row(ods.PMDurability, map[string]sim.Time{"issue": 1000, "flush-data": 1500, "commit-record": 120, "lock-release": 500}),
		}}
	}
	if errs := healthy().CheckShape(); len(errs) != 0 {
		t.Fatalf("healthy synthetic decomposition rejected: %v", errs)
	}
	phase := func(b *Breakdown, row int, name string) *metrics.PhaseStat {
		for i := range b.Rows[row].Phases {
			if b.Rows[row].Phases[i].Name == name {
				return &b.Rows[row].Phases[i]
			}
		}
		t.Fatalf("no phase %q", name)
		return nil
	}
	breaks := []struct {
		name, want string
		mutate     func(*Breakdown)
	}{
		{"phases miss the total", "tile exactly", func(b *Breakdown) { b.Rows[0].TilingError = 7 }},
		{"a commit never folded", "every commit must fold", func(b *Breakdown) { b.Rows[1].Open = 1 }},
		{"a conservation law broke", "conservation", func(b *Breakdown) { b.Rows[0].Violations = []string{"txn-conservation"} }},
		{"disk flush does not dominate", "expected to dominate", func(b *Breakdown) {
			phase(b, 0, "lock-release").Sum += phase(b, 0, "flush-data").Sum
			phase(b, 0, "flush-data").Sum = 0
		}},
		{"issue is the long pole", "must be the long pole", func(b *Breakdown) {
			b.Rows[0].Total.Sum += 20000
			phase(b, 0, "issue").Sum += 20000
		}},
		{"PM flush share not below disk's", "not below disk's", func(b *Breakdown) {
			*phase(b, 1, "flush-data") = *phase(b, 0, "flush-data")
			*phase(b, 1, "commit-record") = *phase(b, 0, "commit-record")
			b.Rows[1].Total = b.Rows[0].Total
		}},
	}
	for _, br := range breaks {
		b := healthy()
		br.mutate(&b)
		found := false
		for _, err := range b.CheckShape() {
			found = found || strings.Contains(err.Error(), br.want)
		}
		if !found {
			t.Errorf("%s: CheckShape did not report %q: %v", br.name, br.want, b.CheckShape())
		}
	}
}
