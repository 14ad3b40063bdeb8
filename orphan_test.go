package persistmem_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// orphanAllowed names the internal packages no other package's code
// imports, each with the reason it stays.
var orphanAllowed = map[string]string{
	"persistmem/internal/analysis/analysistest": "a test helper by design: only the analyzers' tests import it",
}

// TestNoOrphanInternalPackage: every internal package is imported by the
// non-test code of some other package — a command, the benchmark or
// another internal package. One that only its own tests import is a
// second front-end nothing runs; delete it, or allow it above with a
// reason.
func TestNoOrphanInternalPackage(t *testing.T) {
	const module = "persistmem"
	internal := map[string]bool{}
	imported := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		if strings.HasPrefix(pkg, module+"/internal/") {
			internal[pkg] = true
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if imp != pkg {
				imported[imp] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(internal) == 0 {
		t.Fatal("found no internal packages")
	}
	var orphans []string
	for pkg := range internal {
		if !imported[pkg] && orphanAllowed[pkg] == "" {
			orphans = append(orphans, pkg)
		}
	}
	sort.Strings(orphans)
	for _, pkg := range orphans {
		t.Errorf("%s is imported only by its own tests", pkg)
	}
	for pkg := range orphanAllowed {
		if !internal[pkg] || imported[pkg] {
			t.Errorf("allow-listed %s is gone or imported now; drop its entry", pkg)
		}
	}
}
