#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root;
# every argument is passed through (see bench/README.md).
#
#   bash bench/run.sh --workload grid-stack --seed 1 --seconds 25 --trace 0
#
# The Go build cache, configuration and binary live under .bench_build so a
# run reads and writes nothing outside the checkout. Telemetry is switched off
# in that private configuration, so the toolchain leaves no process behind.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"
export XDG_CONFIG_HOME="$out/config" GOCACHE="$out/gocache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# A build inside a git work tree stamps vcs.revision into the run record; a
# plain source tree (or an unreadable one) builds without the stamp.
if ! (cd "$root/bench" && go build -o "$out/cachebench" . 2>/dev/null); then
	(cd "$root/bench" && go build -buildvcs=false -o "$out/cachebench" .)
fi
exec "$out/cachebench" "$@"
