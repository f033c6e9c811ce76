#!/usr/bin/env bash
# Builds the PAC benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload finetune --seed 1 --seconds 50 --trace 0
#
# Run from the root of a checkout. Every build product (Go build cache,
# binary, trace dumps) stays under $CARGO_TARGET_DIR, default
# .bench_build, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a PAC checkout (go.mod, internal/ and perfbench/ required)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

# The module needs nothing beyond this checkout: no toolchain or module
# downloads, and no inherited build flags.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out-dir "$out" "$@"
