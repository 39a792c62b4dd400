#!/usr/bin/env bash
# Identity proof for a refactor that claims "same behaviour": build a
# base revision and the working tree, produce the same deterministic
# artifacts with each, and compare them one by one.
#
#   scripts/identity.sh <rev>          e.g. scripts/identity.sh HEAD~1
#
# Prints one "same" or "DIFFERS" line per artifact and exits 1 on any
# difference (2 on a usage or build error).  The artifacts are the
# verify recipe's: the trace JSONL and OpenMetrics text, the mkfs image,
# seven crashcheck runs, three model runs, the masked SCALE=0.05 bench
# stdout (and its exit status), the two_disks example, and every virtual
# and count metric of bench/perf at --seed 1 --scale 0.4, plain and
# traced.  Wall-clock seconds, temp paths and real-clock metrics vary
# from run to run and are masked or left out.
#
# <rev> is exported with `git archive` into a temp directory (under
# $TMPDIR, removed on exit) and built there, so the checkout gains no
# worktree.  A full run takes a few minutes per tree; KEEP=1 keeps the
# temp directory and prints its path, for diffing what differs.
# Needs git, dune, cmp and python3.

set -u

if [ $# -ne 1 ]; then
  echo "usage: $0 <rev>" >&2
  exit 2
fi
rev=$1
root=$(git rev-parse --show-toplevel) || exit 2
base_commit=$(git -C "$root" rev-parse --verify "$rev^{commit}") || exit 2

work=$(mktemp -d "${TMPDIR:-/tmp}/identity.XXXXXX")
if [ "${KEEP:-0}" = 1 ]; then
  echo "keeping $work"
else
  trap 'rm -rf "$work"' EXIT
fi

build() { # dir label
  if ! (cd "$1" && dune build --root . 2>"$work/build-$2.log"); then
    echo "identity: building $2 failed, see $work/build-$2.log" >&2
    KEEP=1
    trap - EXIT
    exit 2
  fi
}

mkdir "$work/base"
git -C "$root" archive "$base_commit" | tar -x -C "$work/base"
build "$work/base" base
build "$root" head

# The crashcheck and bench masks: wall-clock seconds and temp paths.
mask() {
  sed -E -e "s#$work/[a-z]+/#TMP/#g" -e 's#file:/[^ ]+#file#' \
    -e '/^(mem|file) /s/^([a-z]+) +[0-9.]+/\1 W/' \
    -e 's/[0-9.]+ s wall/W s wall/g' -e 's/ in [0-9.]+ ?s\b/ in W s/g' \
    -e 's/\([0-9.]+ ?s\)/(W s)/g' -e '/^wrote /d' -e 's/ +/ /g'
}

# Every virtual and count metric of a bench/perf --out directory, one
# "workload metric value" line each.
perf_metrics() {
  python3 - "$1" <<'EOF'
import json, os, sys
real_units = {"s", "1/s", "us", "MB", "words/op"}
real_rows = {"backend.wall_share", "trace.overhead_frac"}
d = sys.argv[1]
for f in sorted(os.listdir(d)):
    if f.count(".") != 1 or not f.endswith(".json"):
        continue  # <workload>.json only, not its .layers/.trace files
    j = json.load(open(os.path.join(d, f)))
    rows = dict(j.get("end_to_end") or {})
    rows.update(j.get("per_layer") or {})
    for k in sorted(rows):
        m = rows[k]
        if m["unit"] in real_units or k in real_rows or k.startswith("gc."):
            continue
        print(j["workload"], k, repr(m["value"]))
    print(j["workload"], "correct", j["correct"], "failed", j["failed"])
EOF
}

run_side() { # tree side
  local tree=$1 out=$work/out/$2
  local cli=$tree/_build/default/bin/lld_cli.exe
  mkdir -p "$out"
  cd "$out" || exit 2
  "$cli" trace --segments 64 --files 120 --out t.json --jsonl trace.jsonl \
    >/dev/null 2>&1
  "$cli" stats --segments 64 --files 120 --openmetrics >openmetrics.txt 2>&1
  "$cli" mkfs --file mkfs.img --segments 64 >/dev/null 2>&1
  local i=0
  for args in "--budget 200" "--workload cleaning" \
    "--workload group-commit --budget 300" \
    "--workload cross-shard --budget 200" "--during-recovery --budget 8" \
    "--corruption" "--differential"; do
    i=$((i + 1))
    # shellcheck disable=SC2086
    { "$cli" crashcheck $args 2>&1; echo "exit $?"; } | mask >"crashcheck-$i.txt"
  done
  "$cli" model --seed 1 --budget 500 >model-1.txt 2>&1
  "$cli" model --group-commit --clients 3 --budget 200 >model-2.txt 2>&1
  "$cli" model --shards 3 --crash-every 10 --crash-points 4 >model-3.txt 2>&1
  { SCALE=0.05 BENCH_JSON=$out/BENCH.json \
      "$tree/_build/default/bench/main.exe" 2>&1
    echo "exit $?"; } | mask >bench.txt
  "$tree/_build/default/examples/two_disks.exe" >two_disks.txt 2>&1
  "$tree/_build/default/bench/perf/perf.exe" --seed 1 --scale 0.4 \
    --out perf --dir "$out" >/dev/null 2>&1
  "$tree/_build/default/bench/perf/perf.exe" --seed 1 --scale 0.4 --traced \
    --out perf-traced --dir "$out" >/dev/null 2>&1
  perf_metrics perf >perf.txt
  perf_metrics perf-traced >perf-traced.txt
}

echo "identity: $rev ($base_commit) against the working tree"
run_side "$work/base" base
run_side "$root" head

status=0
for a in trace.jsonl openmetrics.txt mkfs.img crashcheck-1.txt \
  crashcheck-2.txt crashcheck-3.txt crashcheck-4.txt crashcheck-5.txt \
  crashcheck-6.txt crashcheck-7.txt model-1.txt model-2.txt model-3.txt \
  bench.txt two_disks.txt perf.txt perf-traced.txt; do
  if cmp -s "$work/out/base/$a" "$work/out/head/$a"; then
    printf 'same     %s\n' "$a"
  else
    printf 'DIFFERS  %s\n' "$a"
    status=1
  fi
done
exit $status
