// Command simlint runs the repository's static-analysis suite
// (internal/analysis) over Go packages: five analyzers covering
// determinism (nodeterm, seedflow), hot-path allocation (hotalloc),
// real-concurrency leaks (goroutine), and pooled-box lifecycles
// (boxcheck).
//
// Standalone:
//
//	go run ./cmd/simlint ./...          # exit 1 if any finding, 2 on error
//	go run ./cmd/simlint -json ./...    # machine-readable findings
//
// As a vet tool (the go command drives it per package, feeding each one's
// compiled export data, so dependencies never re-typecheck from source):
//
//	go build -o /tmp/simlint ./cmd/simlint
//	go vet -vettool=/tmp/simlint ./...
//
// The tool speaks the three-part protocol cmd/go expects of a vettool:
// `-V=full` (version/build identity), `-flags` (supported analyzer flags,
// none here), and a single `*.cfg` argument naming a vet configuration
// JSON file for one package.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"persistmem/internal/analysis"
)

const version = "v0.3.0"

func main() {
	if len(os.Args) == 2 {
		switch {
		case os.Args[1] == "-V=full" || os.Args[1] == "-V":
			// cmd/go parses "<name> version <ver>" to build its action cache key.
			fmt.Printf("simlint version %s\n", version)
			return
		case os.Args[1] == "-flags":
			// cmd/go merges the tool's analyzer flags into `go vet`'s flag set.
			fmt.Println("[]")
			return
		case strings.HasSuffix(os.Args[1], ".cfg"):
			os.Exit(runUnitchecker(os.Args[1]))
		}
	}
	os.Exit(standalone())
}

func standalone() int {
	fs := flag.NewFlagSet("simlint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-json] [packages]\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	var diags []analysis.Diagnostic
	for _, t := range targets {
		err := analysis.RunAnalyzers(t, analysis.Analyzers(), func(d analysis.Diagnostic) {
			diags = append(diags, d)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		type finding struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]finding, len(diags))
		for i, d := range diags {
			out[i] = finding{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message}
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
