#!/usr/bin/env bash
# Runs the repository benchmark from the repository root:
#
#   bash bench/run.sh -workload featurize-zipf -seed 1
#   bash bench/run.sh -workload embed-restbase -seed 1 -trace
#   bash bench/run.sh -compare old.json new.json
#
# The Go build cache, the go command's config and temporary files, the
# built binaries and every run directory live under .bench_build/ at the
# repository root, so a run writes nothing outside the checkout. See
# bench/README.md.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
b="$root/.bench_build"
mkdir -p "$b/tmp"
export GOCACHE="$b/gocache" GOTMPDIR="$b/tmp" GOPATH="$b/gopath" XDG_CONFIG_HOME="$b/config" \
	GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$b/bench" .
exec "$b/bench" -root "$root" "$@"
