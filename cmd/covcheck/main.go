// Command covcheck gates per-package test coverage: it parses a
// `go test -coverprofile` output, computes statement coverage per
// package, and fails when any package falls below its committed floor in
// COVERAGE.json. Floors ratchet: -update rewrites the file to the
// current figures, so coverage can only be lowered deliberately, in a
// reviewed diff.
//
// Usage:
//
//	go test -coverprofile=cover.out ./...
//	go run ./cmd/covcheck -profile cover.out            # gate
//	go run ./cmd/covcheck -profile cover.out -update    # re-baseline
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
)

// slack absorbs sub-point jitter from timing-sensitive tests so the gate
// trips on real coverage loss, not float noise.
const slack = 0.3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, reports to stdout and stderr, and
// returns the exit code — 0 when every package meets its floor, 1 when one
// does not, 2 on a usage, profile or floor-file error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("covcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		profile = fs.String("profile", "cover.out", "coverprofile to read")
		floors  = fs.String("floors", "COVERAGE.json", "per-package floor file")
		update  = fs.Bool("update", false, "rewrite the floor file to current coverage")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cov, err := parseProfile(*profile)
	if err != nil {
		fmt.Fprintf(stderr, "covcheck: %v\n", err)
		return 2
	}
	if len(cov) == 0 {
		fmt.Fprintln(stderr, "covcheck: profile contains no statements")
		return 2
	}

	if *update {
		if err := writeFloors(*floors, cov); err != nil {
			fmt.Fprintf(stderr, "covcheck: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "covcheck: wrote %d package floors to %s\n", len(cov), *floors)
		return 0
	}

	want, err := readFloors(*floors)
	if err != nil {
		fmt.Fprintf(stderr, "covcheck: %v (run with -update to create it)\n", err)
		return 2
	}

	failures := 0
	for _, pkg := range sortedKeys(want) {
		floor := want[pkg]
		got, ok := cov[pkg]
		if !ok {
			fmt.Fprintf(stderr, "covcheck: FAIL %-44s floor %5.1f%% but package absent from profile (deleted? remove its entry from %s)\n", pkg, floor, *floors)
			failures++
			continue
		}
		if got+slack < floor {
			fmt.Fprintf(stderr, "covcheck: FAIL %-44s %5.1f%% < floor %5.1f%%\n", pkg, got, floor)
			failures++
		}
	}
	for _, pkg := range sortedKeys(cov) {
		if _, ok := want[pkg]; !ok {
			fmt.Fprintf(stdout, "covcheck: note %-44s %5.1f%% has no floor yet (add with -update)\n", pkg, cov[pkg])
		}
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "covcheck: %d package(s) below floor\n", failures)
		return 1
	}
	fmt.Fprintf(stdout, "covcheck: %d packages at or above their floors\n", len(want))
	return 0
}

// parseProfile reads a coverprofile and returns statement coverage
// percent per package import path. Blocks duplicated across test binaries
// are merged by taking the maximum hit count, matching `go tool cover`.
func parseProfile(name string) (map[string]float64, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	type blockKey struct {
		file, pos string
	}
	stmts := map[blockKey]int{}
	hits := map[blockKey]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "mode:") {
			continue
		}
		// file.go:startLine.startCol,endLine.endCol numStmts hitCount
		colon := strings.LastIndexByte(line, ':')
		if colon < 0 {
			return nil, fmt.Errorf("%s: malformed line %q", name, line)
		}
		rest := strings.Fields(line[colon+1:])
		if len(rest) != 3 {
			return nil, fmt.Errorf("%s: malformed line %q", name, line)
		}
		n, err1 := strconv.Atoi(rest[1])
		count, err2 := strconv.Atoi(rest[2])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s: malformed line %q", name, line)
		}
		k := blockKey{file: line[:colon], pos: rest[0]}
		stmts[k] = n
		if count > 0 {
			hits[k] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	total := map[string]int{}
	covered := map[string]int{}
	for k, n := range stmts {
		pkg := path.Dir(k.file)
		total[pkg] += n
		if hits[k] {
			covered[pkg] += n
		}
	}
	out := make(map[string]float64, len(total))
	for pkg, n := range total {
		if n > 0 {
			out[pkg] = 100 * float64(covered[pkg]) / float64(n)
		}
	}
	return out, nil
}

func readFloors(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// writeFloors emits the floor file with sorted keys and one decimal
// place, so re-baselining produces minimal, reviewable diffs.
func writeFloors(path string, cov map[string]float64) error {
	var b strings.Builder
	b.WriteString("{\n")
	keys := sortedKeys(cov)
	for i, pkg := range keys {
		fmt.Fprintf(&b, "  %q: %.1f", pkg, cov[pkg])
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
