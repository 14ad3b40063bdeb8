package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// profile is a coverprofile in which package persistmem/a has ten
// statements, eight of them covered, and persistmem/b three, one covered.
// Two of a's blocks are listed by two test binaries and hit in only one:
// the first in the later listing, the second in the earlier.
const profile = `mode: set
persistmem/a/x.go:1.1,2.2 5 0
persistmem/a/x.go:3.1,4.2 3 1
persistmem/b/y.go:1.1,2.2 1 1
persistmem/a/x.go:5.1,6.2 2 0
persistmem/b/y.go:3.1,4.2 2 0
persistmem/a/x.go:1.1,2.2 5 1
persistmem/a/x.go:3.1,4.2 3 0
`

// covcheck writes the profile and floor file into a fresh directory and
// runs the command over them with the extra args.
func covcheck(t *testing.T, prof, floors string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	pf, ff := filepath.Join(dir, "cover.out"), filepath.Join(dir, "COVERAGE.json")
	if err := os.WriteFile(pf, []byte(prof), 0o644); err != nil {
		t.Fatal(err)
	}
	if floors != "" {
		if err := os.WriteFile(ff, []byte(floors), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errb bytes.Buffer
	code = run(append([]string{"-profile", pf, "-floors", ff}, args...), &out, &errb)
	return code, out.String(), errb.String()
}

func TestBlockHitByOneBinaryIsCovered(t *testing.T) {
	dir := t.TempDir()
	pf := filepath.Join(dir, "cover.out")
	if err := os.WriteFile(pf, []byte(profile), 0o644); err != nil {
		t.Fatal(err)
	}
	cov, err := parseProfile(pf)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]float64{"persistmem/a": 80, "persistmem/b": 100.0 / 3}; !reflect.DeepEqual(cov, want) {
		t.Errorf("coverage = %v, want %v", cov, want)
	}
	if code, out, errb := covcheck(t, profile, `{"persistmem/a": 80.0, "persistmem/b": 33.3}`); code != 0 {
		t.Errorf("exit %d at the floors, want 0\nstdout:\n%sstderr:\n%s", code, out, errb)
	}
}

func TestMalformedLineExits2(t *testing.T) {
	for _, line := range []string{
		"persistmem/a/x.go 1.1,2.2 5 1", // no colon
		"persistmem/a/x.go:1.1,2.2 5",   // two fields
		"persistmem/a/x.go:1.1,2.2 five 1",
	} {
		code, _, errb := covcheck(t, "mode: set\n"+line+"\n", `{"persistmem/a": 0.0}`)
		if code != 2 || !strings.Contains(errb, "malformed line") {
			t.Errorf("%q: exit %d, stderr %q; want 2 and a malformed-line error", line, code, errb)
		}
	}
}

func TestFloorOfAbsentPackageFails(t *testing.T) {
	code, _, errb := covcheck(t, profile, `{"persistmem/a": 80.0, "persistmem/b": 33.3, "persistmem/gone": 10.0}`)
	if code != 1 || !strings.Contains(errb, "persistmem/gone") || !strings.Contains(errb, "absent from profile") ||
		!strings.Contains(errb, "remove its entry") {
		t.Errorf("exit %d, stderr %q; want 1 naming the absent package", code, errb)
	}
}

func TestSlackBoundary(t *testing.T) {
	for _, tc := range []struct {
		floor string
		want  int
	}{
		{"80.3", 0},  // 0.3 below: inside the slack
		{"80.31", 1}, // 0.31 below: a real loss
	} {
		code, _, errb := covcheck(t, profile, `{"persistmem/a": `+tc.floor+`}`)
		if code != tc.want {
			t.Errorf("floor %s over 80.0%%: exit %d, want %d; stderr %q", tc.floor, code, tc.want, errb)
		}
	}
}

func TestUpdateWritesSortedOneDecimalFloors(t *testing.T) {
	dir := t.TempDir()
	pf, ff := filepath.Join(dir, "cover.out"), filepath.Join(dir, "COVERAGE.json")
	if err := os.WriteFile(pf, []byte(profile), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-profile", pf, "-floors", ff, "-update"}, &out, &errb); code != 0 {
		t.Fatalf("-update exit %d: %s", code, errb.String())
	}
	got, err := os.ReadFile(ff)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"persistmem/a\": 80.0,\n  \"persistmem/b\": 33.3\n}\n"; string(got) != want {
		t.Errorf("floor file =\n%s\nwant\n%s", got, want)
	}
	floors, err := readFloors(ff)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]float64{"persistmem/a": 80.0, "persistmem/b": 33.3}; !reflect.DeepEqual(floors, want) {
		t.Errorf("floors read back as %v, want %v", floors, want)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-profile", pf, "-floors", ff}, &out, &errb); code != 0 {
		t.Errorf("gate over the floors it just wrote: exit %d: %s", code, errb.String())
	}
}
