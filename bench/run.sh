#!/bin/sh
# The benchmark driver's entry point: build the benchmark from source
# into .bench_build/ under the current directory (the root of a
# checkout), keeping the Go build cache there too so nothing is written
# outside the checkout, then run it with the driver's arguments.
# By hand, `go run ./bench ...` does the same with the usual cache.
set -e
mkdir -p .bench_build
: "${GOCACHE:=$PWD/.bench_build/gocache}"
export GOCACHE
go build -o .bench_build/bistream-bench ./bench
exec .bench_build/bistream-bench "$@"
