#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout as BENCHMARK.json's command:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes — Go's build cache, the go command's own config and
# counter files, the binary, traces, scratch files — stays under
# .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
if git -C "$root" rev-parse --short HEAD >/dev/null 2>&1; then
	DTBENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD)"
	export DTBENCH_COMMIT
fi
XDG_CONFIG_HOME="$out/config" go build -C "$here" -o "$out/bin/dtbench-e2e" .
cd "$root"
exec "$out/bin/dtbench-e2e" -outdir "$out" "$@"
