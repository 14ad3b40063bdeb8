package bench

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"persistmem/internal/ods"
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
	b := RunBreakdown(1, Smoke)
	for _, err := range b.CheckShape() {
		t.Error(err)
	}
	if b.CSV() == "" || b.Table() == "" {
		t.Fatal("empty rendering")
	}
}
