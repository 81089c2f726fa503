#!/usr/bin/env bash
# Builds the joind serving benchmark from this checkout's sources and runs it.
#
#   bash joindbench/run.sh --workload <name|all> --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it writes (the Go build cache,
# the binary, temporary stores and span files) goes under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/go-tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" \
	GOMODCACHE="$out/go-path/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/joindbench" && go build -o "$out/joindbench" .)
exec "$out/joindbench" --workdir "$out" "$@"
