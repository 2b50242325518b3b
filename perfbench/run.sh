#!/usr/bin/env bash
# Builds the wall-clock benchmark from the surrounding checkout and runs
# it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload pingpong-mem --seed 1 --seconds 10 --trace 0
#
# The binary and every Go cache live under .bench_build/perfbench at the
# checkout root, so a run reads and writes nothing outside the checkout.
# Without the repository's sources next to perfbench/ the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
