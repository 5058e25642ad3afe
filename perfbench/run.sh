#!/usr/bin/env bash
# Builds perfbench from source and runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload csm-locks --seed 42 --seconds 30 --trace 0
#
# The Go build cache, the go command's configuration and telemetry
# directory, temporary files and the binary stay in .bench_build at the root
# of the checkout. The build needs the repository's own module one
# directory up (go.mod replaces "repro" with it), so it fails without it.
#
# The go command is isolated from the caller's environment: no workspace
# file, no GOFLAGS, no VCS stamping (the checkout need not be a repository),
# no cgo and no module proxy.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
    TMPDIR=$out/tmp GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOWORK=off \
    GOFLAGS=-buildvcs=false GO111MODULE=on CGO_ENABLED=0 GOPROXY=off
unset GOENV GOOS GOARCH
build() { (cd "$root/perfbench" && go build -o "$out/perfbench" .); }
# A build that fails once (a compiler killed under memory pressure, say) is
# tried once more; a second failure is reported and ends the run.
if ! build && ! build; then
    echo "perfbench/run.sh: building perfbench failed" >&2
    exit 1
fi
exec "$out/perfbench" "$@"
