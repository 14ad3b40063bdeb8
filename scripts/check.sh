#!/bin/sh
# check.sh — the repository's pre-commit gate: build, vet, gofmt, simlint
# (the determinism & hot-path suite in cmd/simlint), the full test suite
# with its coverage floors, and the race detector over every package.
# Every behavioural gate is a Go test: the 64-cell fault matrix, sweep
# determinism at any parallelism, the committed-artifact skeletons and
# the allocation budgets all fail `go test ./...`, not a shell pipeline.
#
# govulncheck runs when installed (CI installs it; it is optional locally
# so the gate works offline).
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# Formatting: gofmt must have nothing to say. The analyzers' testdata/
# fixtures are inputs, some misformatted on purpose, and are left alone.
test -z "$(gofmt -l . | grep -v '/testdata/')"
# simlint (determinism, hot-path and box-lifecycle suite).
# The committed baseline is empty: the tree carries zero findings, only
# reviewed //simlint:allow suppressions. The JSON report is left behind on
# failure so CI can upload it as an artifact.
go run ./cmd/simlint -json ./... > simlint.json || true
echo '[]' | diff - simlint.json
rm -f simlint.json
# The main test pass doubles as the coverage gate: covcheck fails when
# any package drops below its committed per-package floor (COVERAGE.json;
# re-baseline deliberately with `go run ./cmd/covcheck -update`).
go test -coverprofile=/tmp/persistmem-cover.out ./...
go run ./cmd/covcheck -profile /tmp/persistmem-cover.out
rm -f /tmp/persistmem-cover.out
# The B-tree's differential fuzz target past its seed corpus, which the test
# pass above already runs: runs of Set, Delete, write-through Ref and Ascend
# against a map, on trees of up to three levels.
go test -run '^$' -fuzz FuzzTreeOps -fuzztime 20s ./internal/btree
# The race pass is also the checkptr pass: -race turns on the compiler's
# pointer checks, which test every unsafe.Slice (dp2's row bodies) against
# the allocation its pointer points into.
# The slowest package under the race detector is internal/bench at under
# 1.5 minutes on a 2-vCPU host (78 s; the 512-cell chaos sweep is ~5 s of
# it, TestC2ArtifactMatchesFullScale's four 4000-transaction recoveries
# ~6 s), inside the 10-minute per-package default with better than 5x
# headroom.
# The race pass also runs each package's tests in a shuffled order, so a
# test that leans on what an earlier test left behind (a spare buffer in a
# process-wide pool, a warmed cache) fails here rather than by luck later;
# the failure prints its -test.shuffle seed, and `go test -shuffle=<seed>`
# replays that order.
go test -race -shuffle=on ./...

if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./...
fi
