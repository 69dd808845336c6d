#!/usr/bin/env bash
# lint.sh — the repo's full static-analysis gate, runnable locally and in CI.
#
#   scripts/lint.sh
#
# Runs, in order:
#   1. go vet (stdlib analyzers)
#   2. staticcheck, if installed (CI pins honnef.co/go/tools @2025.1.1;
#      check set comes from staticcheck.conf at the repo root)
#   3. fllint — the repo's own invariant analyzers (internal/analysis):
#      determinism, poolescape, nanjson, telemetryclock, zerodep
#
# Exits nonzero on the first failing stage.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go vet"
go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
    echo "==> staticcheck"
    staticcheck ./...
else
    echo "==> staticcheck not installed; skipping (CI runs it pinned)"
fi

echo "==> fllint"
go run ./cmd/fllint ./...

echo "lint: all clean"
