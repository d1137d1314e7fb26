#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build orbload from the checkout's
# own source into the checkout, then run it with the caller's arguments. The
# build cache, temporary files and binary all live under .bench_build/, so a
# run reads and writes nothing outside the checkout; the first build there is
# cold (about a minute), later ones take a fraction of a second. Run it from
# the repository root.
set -euo pipefail

root=$PWD
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"

now_us() {
	local t=${EPOCHREALTIME:-$(date +%s.%6N)}
	echo "${t/[.,]/}"
}
start=$(now_us)
go build -o "$root/.bench_build/orbload" ./bench/orbload
us=$(($(now_us) - start))
build_s=$(printf '%d.%06d' $((us / 1000000)) $((us % 1000000)))

exec "$root/.bench_build/orbload" -build-s "$build_s" "$@"
