#!/bin/sh
# Non-test Go line count: every *.go file except *_test.go, outside the
# benchmark module (bench/), analyzer fixtures (testdata/) and build
# outputs. Prints one "lines directory" row per package, largest first,
# then the total.
set -eu
cd "$(dirname "$0")/.."

find . \( -path ./bench -o -path ./.bench_build -o -path ./.git -o -name testdata \) -prune \
	-o -type f -name '*.go' ! -name '*_test.go' -print |
	xargs wc -l |
	awk '$2 != "total" {
		dir = $2
		sub(/\/[^\/]*$/, "", dir)
		sub(/^\.\/?/, "", dir)
		if (dir == "") dir = "."
		lines[dir] += $1
		total += $1
	}
	END {
		for (d in lines) printf "%7d %s\n", lines[d], d | "sort -k1,1nr -k2"
		close("sort -k1,1nr -k2")
		printf "%7d total\n", total
	}'
