#!/usr/bin/env bash
# Builds flasksd and the benchmark from source into .bench_build, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload kv-mixed --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build: the
# Go build cache, module cache, the go command's temporary directory
# (GOTMPDIR) and its config and telemetry directory (XDG_CONFIG_HOME)
# included.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=.bench_build
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$root/$build/gocache" GOPATH="$root/$build/gopath" \
	GOTMPDIR="$root/$build/tmp" XDG_CONFIG_HOME="$root/$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

commit=
if [ -e .git ]; then
	commit=$(git rev-parse --short=12 HEAD 2>/dev/null || true)
fi
if [ -z "$commit" ]; then
	# Not a git checkout: name the source by a digest of its Go files.
	commit="src-$(find . -path "./$build" -prune -o \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)"
fi

go build -o "$build/bin/flasksd" ./cmd/flasksd
(cd perfbench && go build -o "../$build/bin/perfbench" .)
PERFBENCH_COMMIT=$commit exec "$build/bin/perfbench" \
	--flasksd "$build/bin/flasksd" --out "$build/perfbench" "$@"
