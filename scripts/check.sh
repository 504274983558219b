#!/bin/sh
# check.sh — the full pre-merge gate: build, vet, lint, the test suite
# under the race detector, then every experiment of the vmbench
# registry at smoke scale. The telemetry subsystem serves debug HTTP
# endpoints concurrently with kernel runs, so -race is part of the bar.
#
# The smoke run writes each experiment's journals and Chrome traces
# into check-artifacts/ (gitignored); CI uploads them.
#
# Knob (off by default):
#   CI_QUIET=1        suppress command echoing (CI logs stay readable)
set -eu
[ "${CI_QUIET:-0}" = "1" ] || set -x

cd "$(dirname "$0")/.."

go build ./...
go vet ./...

# staticcheck is part of the gate when available (CI installs the
# pinned version; see `make lint`). Local runs without it still pass,
# loudly, so offline development keeps working.
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "check.sh: staticcheck not installed, skipping lint (see 'make lint')" >&2
fi

go test -race ./...

# Every experiment in the vmbench registry (see EXPERIMENTS.md), each
# gated one replayed on the same seed. vmbench runs them all, names
# every violation on stderr and exits nonzero if any gate failed.
go run ./cmd/vmbench -series smoke -artifacts check-artifacts >/dev/null
