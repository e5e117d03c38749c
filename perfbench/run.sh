#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload corpus_cold --seed 2008 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout. The build
# log goes to stderr; only the benchmark writes to stdout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOTELEMETRY=off

if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	if [ -e "$root/.git" ] && commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
		PERFBENCH_COMMIT=$commit
	else
		PERFBENCH_COMMIT=src-$(find "$root" -name '*.go' -not -path "$out/*" -print0 |
			LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)
	fi
	export PERFBENCH_COMMIT
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --span-dir "$out" "$@"
