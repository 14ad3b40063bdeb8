package main

import (
	"bytes"
	"testing"

	"persistmem/internal/bench"
)

// TestFigure1CSVIsTheExperiment: the command prints the bytes of the bench
// experiment it wraps.
func TestFigure1CSVIsTheExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-fig", "1", "-scale", "smoke", "-csv"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, errb.String())
	}
	if want := (bench.Runner{}).Figure1(1, bench.Smoke).CSV(); out.String() != want {
		t.Errorf("CSV differs from bench.Runner{}.Figure1:\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

func TestBadScaleExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scale", "bogus"}, &out, &errb); code != 2 || out.Len() != 0 || errb.Len() == 0 {
		t.Errorf("exit %d, stdout %q, stderr %q; want 2, nothing printed and an error", code, out.String(), errb.String())
	}
}
