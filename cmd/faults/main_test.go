package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenMatrix runs the command on the gate's matrix: it prints exactly
// the table internal/bench pins, exits 0, and writes an empty violations
// file.
func TestGoldenMatrix(t *testing.T) {
	viol := filepath.Join(t.TempDir(), "violations.txt")
	var out, errb bytes.Buffer
	if code := run([]string{"-txns", "8", "-chaos", "1", "-violations", viol}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, errb.String())
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "bench", "testdata", "faults_txns8_chaos1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("table drifted from the golden:\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
	if v, err := os.ReadFile(viol); err != nil || len(v) != 0 {
		t.Errorf("violations file = %q, %v; want empty", v, err)
	}
}

func TestBadFlagExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-txns", "many"}, &out, &errb); code != 2 || out.Len() != 0 {
		t.Errorf("exit %d with stdout %q, want 2 and nothing printed", code, out.String())
	}
}
