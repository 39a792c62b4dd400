#!/usr/bin/env bash
# A/B runs of the benchmark: bench/perf/README.md's "Claiming a gain"
# procedure as one command.
#
#   scripts/ab.sh <rev> <workload|all> <seed> [pairs]
#   e.g. scripts/ab.sh HEAD~1 crashcheck 23
#        scripts/ab.sh HEAD~1 all 23 3
#
# <rev> (the parent) is exported with `git archive` into a temp
# directory (under $TMPDIR, removed on exit) and built there; the
# working tree is the change.  Both trees run BENCHMARK.json's
# `command` from their own root with `--workload <workload> --seed
# <seed> --seconds <run_seconds> --trace 0`, [pairs] times each
# (default 10), alternating which side runs first: pair 0 starts with
# the parent.  <workload> `all` runs every BENCHMARK.json workload in
# each pair, one after another.  Printed on stdout, under a heading per
# workload:
#
#   - one line per failed run, followed by the last 20 lines of that
#     run's stderr (an uncaught exception ends the benchmark with exit 2
#     and leaves its text there);
#   - one row per pair: which side ran first, and each side's
#     ops_per_s and op_p50_us;
#   - one row per end-to-end metric of BENCHMARK.json: each side's
#     median and quartiles, the change in the median, the pairs the
#     change won and the pairs the side that ran first won (ties count
#     for neither), and a verdict.  A first-run count far from half the
#     pairs means run order moves the metric, so the change's count
#     measures order as well as the change.  "gain" means
#     the change won at least nine pairs in ten and its median is
#     better by more than the parent's quartile spread; "outside bound"
#     means its median is worse than the parent's by more than the
#     metric's bound; "unresolved" means it is not, but the parent's own
#     quartile spread is wider than the bound and not every run of the
#     change reads better than every run of the parent.
#
# Exits 1 if any run fails, reports `correct: false` or `failed > 0`,
# 2 on a usage or build error.  KEEP=1 keeps the temp directory, with
# every run's output under runs/<workload>/.  Do not build in the
# checkout while it runs.  Needs git, dune and python3.

set -u

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: $0 <rev> <workload|all> <seed> [pairs]" >&2
  exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=${4:-10}
case $pairs in
  '' | *[!0-9]* | 0)
    echo "ab: pairs must be a positive integer" >&2
    exit 2
    ;;
esac
root=$(git rev-parse --show-toplevel) || exit 2
base_commit=$(git -C "$root" rev-parse --verify "$rev^{commit}") || exit 2

bench_json=$root/BENCHMARK.json
mapfile -d '' cmd < <(python3 - "$bench_json" <<'EOF'
import json, sys
j = json.load(open(sys.argv[1]))
sys.stdout.write("".join(a + "\0" for a in j["command"]))
EOF
)
run_seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$bench_json")
if [ ${#cmd[@]} -eq 0 ] || [ -z "$run_seconds" ]; then
  echo "ab: cannot read command and run_seconds from $bench_json" >&2
  exit 2
fi
if [ "$workload" = all ]; then
  mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$bench_json")
else
  workloads=("$workload")
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
if [ "${KEEP:-0}" = 1 ]; then
  echo "keeping $work"
else
  trap 'rm -rf "$work"' EXIT
fi

build() { # dir label
  if ! (cd "$1" && dune build --root . bench/perf/perf.exe \
    2>"$work/build-$2.log"); then
    echo "ab: building $2 failed, see $work/build-$2.log" >&2
    KEEP=1
    trap - EXIT
    exit 2
  fi
}

mkdir "$work/base" "$work/runs"
git -C "$root" archive "$base_commit" | tar -x -C "$work/base"
build "$work/base" base
build "$root" head

run() { # side pair workload
  local tree=$root out=$work/runs/$3/$1-$2
  [ "$1" = parent ] && tree=$work/base
  mkdir -p "$work/runs/$3"
  (cd "$tree" && "${cmd[@]}" --workload "$3" --seed "$seed" \
    --seconds "$run_seconds" --trace 0) >"$out.out" 2>"$out.err"
  echo $? >"$out.status"
}

echo "ab: $rev ($base_commit) against the working tree:" \
  "${cmd[*]} --workload W --seed $seed --seconds $run_seconds" \
  "--trace 0 for W in ${workloads[*]}, $pairs pairs"
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
  for w in "${workloads[@]}"; do
    for side in $order; do
      echo "ab: pair $i, $w, $side" >&2
      run "$side" "$i" "$w"
    done
  done
done

python3 - "$bench_json" "$work/runs" "$pairs" "${workloads[@]}" <<'EOF'
import json, statistics, sys

bench, runs, pairs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
workloads = sys.argv[4:]
sides = ("parent", "change")


def fmt(x):
    return "-" if x is None else f"{x:.5g}"


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def report(workload):
    """Print one workload's failed runs, each with the tail of its
    stderr, then its pair table and metric table.  False if a run
    failed."""
    ok = True
    res = {}  # (side, pair) -> metrics
    for s in sides:
        for i in range(pairs):
            base = f"{runs}/{workload}/{s}-{i}"
            status = open(base + ".status").read().strip()
            lines = open(base + ".out").read().strip().splitlines()
            r = None
            try:
                r = json.loads(lines[-1])
            except (IndexError, ValueError):
                pass
            if r is None:
                failure = f"no result line (exit {status})"
            elif status != "0" or not r["correct"] or r["failed"] > 0:
                failure = (f"exit {status}, correct {r['correct']},"
                           f" failed {r['failed']} of {r['attempted']}")
            else:
                failure = None
            if failure:
                ok = False
                print(f"ab: {s} pair {i}: {failure}")
                for line in open(base + ".err").read().splitlines()[-20:]:
                    print(f"    {line}")
            if r is not None:
                res[(s, i)] = {k: m["value"] for k, m in r["metrics"].items()}

    def val(s, i, k):
        return res.get((s, i), {}).get(k)

    print()
    print("| pair | first | parent `ops_per_s` | change `ops_per_s` "
          "| parent `op_p50_us` | change `op_p50_us` |")
    print("|---|---|---|---|---|---|")
    for i in range(pairs):
        first = sides[i % 2]
        print(f"| {i} | {first} | {fmt(val('parent', i, 'ops_per_s'))} "
              f"| {fmt(val('change', i, 'ops_per_s'))} "
              f"| {fmt(val('parent', i, 'op_p50_us'))} "
              f"| {fmt(val('change', i, 'op_p50_us'))} |")

    print()
    print("| metric | unit | parent median [q1–q3] | change median [q1–q3] "
          "| change | change wins | first-run wins | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for m in bench["end_to_end"]:
        k, higher, bound = m["name"], m["better"] == "higher", m["bound"]
        both = [i for i in range(pairs)
                if val("parent", i, k) is not None
                and val("change", i, k) is not None]
        if not both:
            print(f"| `{k}` | {m['unit']} | - | - | - | - | - | no runs |")
            continue
        p = sorted(val("parent", i, k) for i in both)
        c = sorted(val("change", i, k) for i in both)
        pq, cq = quartiles(p), quartiles(c)

        def better(a, b):  # a better than b
            return a > b if higher else a < b

        wins = sum(better(val("change", i, k), val("parent", i, k))
                   for i in both)
        first_wins = sum(better(val(sides[i % 2], i, k),
                                val(sides[1 - i % 2], i, k))
                         for i in both)
        delta = pq[1] and (cq[1] - pq[1]) / pq[1]
        worse = -delta if higher else delta  # > 0: change median worse
        spread = pq[1] and (pq[2] - pq[0]) / pq[1]
        if (wins * 10 >= 9 * len(both) and better(cq[1], pq[1])
                and abs(cq[1] - pq[1]) > pq[2] - pq[0]):
            verdict = "gain"
        elif worse > bound:
            verdict = "outside bound"
        elif spread > bound and not all(better(x, y) for x in c for y in p):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        print(f"| `{k}` | {m['unit']} "
              f"| {fmt(pq[1])} [{fmt(pq[0])}–{fmt(pq[2])}] "
              f"| {fmt(cq[1])} [{fmt(cq[0])}–{fmt(cq[2])}] | {delta:+.1%} "
              f"| {wins} of {len(both)} | {first_wins} of {len(both)} "
              f"| {verdict} |")
    return ok


ok = True
for w in workloads:
    print()
    print(f"## {w}")
    ok = report(w) and ok
sys.exit(0 if ok else 1)
EOF
