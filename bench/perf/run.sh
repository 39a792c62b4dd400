#!/bin/sh
# Build and run the benchmark from the root of a checkout, e.g.
#   bash bench/perf/run.sh --scale 0.4 --workload aru-sync --seed 1 --seconds 20 --trace 0
# The current directory is dune's workspace root, so a directory holding
# only the benchmark fails to build rather than borrowing another root.
exec dune exec --root . bench/perf/perf.exe -- "$@"
