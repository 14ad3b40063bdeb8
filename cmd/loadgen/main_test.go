package main

import (
	"bytes"
	"testing"
)

// TestSmokeSweepPassesItsChecks runs the smoke sweep with its shape checks.
func TestSmokeSweepPassesItsChecks(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scale", "smoke", "-check"}, &out, &errb); code != 0 || errb.Len() != 0 {
		t.Fatalf("exit %d, want 0 with nothing on stderr:\n%s", code, errb.String())
	}
	if out.Len() == 0 {
		t.Error("no tables printed")
	}
}

func TestBadScaleExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scale", "bogus"}, &out, &errb); code != 2 || out.Len() != 0 || errb.Len() == 0 {
		t.Errorf("exit %d, stdout %q, stderr %q; want 2, nothing printed and an error", code, out.String(), errb.String())
	}
}
