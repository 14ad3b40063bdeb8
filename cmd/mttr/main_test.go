package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestThreePathRows runs a small crash scenario: the command exits 0 and
// prints one table row and one availability row per recovery path.
func TestThreePathRows(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-txns", "50"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, errb.String())
	}
	text := out.String()
	for _, path := range []string{"disk audit, log scan", "PM audit, log scan (no TCB)", "PM audit + fine-grained TCBs"} {
		if n := strings.Count(text, "\n"+path+" "); n != 1 {
			t.Errorf("%d table rows for %q, want 1", n, path)
		}
		if n := strings.Count(text, "\n  "+path+" "); n != 1 {
			t.Errorf("%d availability rows for %q, want 1", n, path)
		}
	}
	if !strings.HasPrefix(text, "crash scenario: 50 committed transactions") {
		t.Errorf("output does not open with the scenario:\n%s", text)
	}
}
