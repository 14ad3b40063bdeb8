package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// skelMasks reduce a rendered table to its format skeleton: the scale
// name, every number (with its duration unit) and column padding masked
// out, so tables of different scales compare equal exactly when they
// have the same rows, columns and labels.
var skelMasks = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`scale=[a-z]+`), "scale=S"},
	{regexp.MustCompile(`[0-9]+(\.[0-9]+)?(ns|us|µs|ms|m?s)?`), "N"},
	{regexp.MustCompile(`  +`), " "},
	{regexp.MustCompile(`(?m) +$`), ""},
}

func skel(s string) string {
	for _, m := range skelMasks {
		s = m.re.ReplaceAllString(s, m.repl)
	}
	return s
}

// checkSkeleton is the artifact staleness gate: the smoke-scale rendering
// must have the same skeleton as the committed full-scale file at the
// repository root. A mismatch means a table changed shape since the
// artifact was generated — rerun the command at -scale full and commit
// the refreshed file.
func checkSkeleton(t *testing.T, artifact, regen, got string) {
	t.Helper()
	committed, err := os.ReadFile(filepath.Join("..", "..", artifact))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := skel(got), skel(string(committed)); g != w {
		t.Errorf("%s is stale: its format skeleton no longer matches the tables (regenerate with `%s`):\n--- smoke ---\n%s--- %s ---\n%s",
			artifact, regen, g, artifact, w)
	}
}

// TestFiguresArtifactSkeleton holds figures_full.txt to what
// `cmd/figures -fig all` prints today.
func TestFiguresArtifactSkeleton(t *testing.T) {
	var b strings.Builder
	for _, e := range Experiments {
		b.WriteString(e.Run(Runner{}, 1, Smoke).Table())
		b.WriteByte('\n') // cmd/figures prints each table with Println
	}
	checkSkeleton(t, "figures_full.txt", "go run ./cmd/figures -fig all -scale full > figures_full.txt", b.String())
}

// TestC2ArtifactMatchesFullScale holds figures_full.txt's C2 block to the
// table ClaimC2 prints at full scale (three 4 000-transaction crashes, about
// a second), byte for byte: the skeleton gate masks every number, so without
// this one the committed MTTRs could drift from what the code measures.
func TestC2ArtifactMatchesFullScale(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "figures_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	s := string(committed)
	start := strings.Index(s, "Claim C2:")
	if start < 0 {
		t.Fatal("figures_full.txt has no Claim C2 block")
	}
	block := s[start:]
	if end := strings.Index(block, "\n\n"); end >= 0 {
		block = block[:end+1]
	}
	if got := (Runner{}).ClaimC2(1, Full).Table(); got != block {
		t.Errorf("figures_full.txt's C2 block is stale (regenerate with `go run ./cmd/figures -fig all -scale full > figures_full.txt`):\n--- measured ---\n%s--- figures_full.txt ---\n%s", got, block)
	}
}

// TestSaturationArtifactSkeleton holds saturation_full.txt to what
// `cmd/loadgen` prints today.
func TestSaturationArtifactSkeleton(t *testing.T) {
	checkSkeleton(t, "saturation_full.txt", "go run ./cmd/loadgen -scale full > saturation_full.txt",
		smokeSaturation().Table()+"\n")
}

// TestSkelMasks pins the masks themselves: numbers with and without
// units, the scale name and padding all collapse; labels survive.
func TestSkelMasks(t *testing.T) {
	in := "Figure 2 (scale=quick)\n32k      1.25s   74.79ms  8.3µs   12ns  \nimages agree: true\n"
	want := "Figure N (scale=S)\nNk N N N N\nimages agree: true\n"
	if got := skel(in); got != want {
		t.Errorf("skel = %q, want %q", got, want)
	}
}
