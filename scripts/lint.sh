#!/bin/sh
# One-command contract lint: builds cmd/powerschedlint and runs the
# whole suite through `go vet -vettool`, so local runs match the CI
# lint job exactly. It also vets the perfbench module, which builds
# against sched's exported surface. staticcheck and govulncheck piggyback when they are
# installed and are skipped with a note when they are not — the
# powerschedlint pass is the part that must always run.
#
# Usage: scripts/lint.sh [packages...]     # default ./...
set -eu
cd "$(dirname "$0")/.."

pkgs="${*:-./...}"

echo "lint: bench drift baseline is the latest committed snapshot"
latest=$(ls BENCH_pr*.json | sed -n 's/^BENCH_pr\([0-9][0-9]*\)\.json$/\1/p' | sort -n | tail -n 1)
baseline=$(sed -n 's/.*bench_diff\.sh \(BENCH_[^ ]*\.json\) .*/\1/p' .github/workflows/ci.yml)
if [ "$baseline" != "BENCH_pr$latest.json" ]; then
    echo "lint: ci.yml diffs against ${baseline:-no snapshot}, but the latest committed snapshot is BENCH_pr$latest.json" >&2
    exit 1
fi

echo "lint: building cmd/powerschedlint"
go build -o bin/powerschedlint ./cmd/powerschedlint

echo "lint: go vet (standard analyzers)"
# shellcheck disable=SC2086 # patterns are intentionally word-split
go vet $pkgs

echo "lint: go vet in perfbench (its own module, built against sched's exported surface)"
(cd perfbench && go vet ./...)

echo "lint: go vet -vettool=powerschedlint (contract analyzers)"
# shellcheck disable=SC2086
go vet -vettool="$(pwd)/bin/powerschedlint" $pkgs

if command -v staticcheck > /dev/null 2>&1; then
    echo "lint: staticcheck"
    # shellcheck disable=SC2086
    staticcheck $pkgs
else
    echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
fi

if command -v govulncheck > /dev/null 2>&1; then
    echo "lint: govulncheck"
    # shellcheck disable=SC2086
    govulncheck $pkgs
else
    echo "lint: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"
fi

echo "lint: OK"
