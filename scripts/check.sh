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
# The DP2's destage queue rebuilt at a takeover against the queue every
# insert pushes to: runs of inserts, commits, aborts, reinserts under an
# aborted key and destages, on a backup's absorbed image.
go test -run '^$' -fuzz FuzzRequeueMatchesInsertOrder -fuzztime 20s ./internal/dp2
# The one log reader every takeover and recovery reads a replica through,
# chunk by chunk, against one whole-image scan: any chunk size from 1 B to
# 64 KiB, any torn, flipped, truncated or zero-filled tail.
go test -run '^$' -fuzz FuzzCursorMatchesWholeScan -fuzztime 20s ./internal/audit
# The race pass is also the checkptr pass: -race turns on the compiler's
# pointer checks, which test every unsafe.Slice (dp2's row bodies) against
# the allocation its pointer points into.
# The slowest package under the race detector is internal/bench: 207 s
# alone on a 2-vCPU host, 294 s beside the other packages, inside the
# 10-minute per-package default with 2x headroom.
# Memory, the test binaries' maxrss on the same host: internal/bench peaks
# at 763 MB and internal/faultinject, whose tests build thousands of
# stores, at 77 MB. Before engines handed their coroutines on to the next
# engine they peaked at 5.9 and 5.5 GB, because the race runtime keeps
# memory for every goroutine that has finished.
# The race pass also runs each package's tests in a shuffled order, so a
# test that leans on what an earlier test left behind (a spare buffer in a
# process-wide pool, a warmed cache) fails here rather than by luck later;
# the failure prints its -test.shuffle seed, and `go test -shuffle=<seed>`
# replays that order.
go test -race -shuffle=on ./...

if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./...
fi
