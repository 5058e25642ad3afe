#!/usr/bin/env bash
# Static checks for the repository, run by CI's lint job and locally before
# sending a change:
#
#   1. go vet          — the stock toolchain checks;
#   2. dsmvet          — the repo's determinism/invariant analyzers
#                        (cmd/dsmvet; see DESIGN.md "Machine-checked
#                        invariants");
#   3. gofmt           — formatting for tracked Go files, including testdata
#                        fixtures (git ls-files, so untracked scratch
#                        directories like .seedtree/ never fail lint).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== dsmvet =="
go run ./cmd/dsmvet ./...

echo "== gofmt =="
unformatted=$(git ls-files -- '*.go' | xargs -r gofmt -l)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "lint OK"
