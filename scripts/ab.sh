#!/usr/bin/env bash
# Interleaved A/B runs of the out-of-process benchmark on two revisions:
#
#   bash scripts/ab.sh BASE [CHANGE] [--pairs N] [--log FILE] [-- ARGS...]
#   bash scripts/ab.sh HEAD~1 -- --workload check-ser-1m-bin --seed 7919 \
#     --seconds 20 --trace 0
#
# BASE, and CHANGE when given, is any git revision: its committed files
# are exported with `git archive` into a temporary directory, which is
# removed on exit.  Without CHANGE the working tree is the change side.
# Each side runs `bash bench/e2e/run.sh ARGS...` (the arguments after
# `--`, unchanged) in its own tree, N times (default 10) in alternating
# pairs: odd pairs run BASE first, even pairs CHANGE first.  Each run's
# result line goes to the log, one JSON object per run, tagged with its
# side, pair and workload (default log: ab.<pid>.jsonl in $TMPDIR).
#
# Per workload and metric it prints each side's median [q1, q3], the
# ratio CHANGE/BASE, the pairs CHANGE won and a verdict, the first of
# these that applies:
#
#   regressed   an end-to-end metric of BENCHMARK.json whose CHANGE
#               median is worse than BASE's by more than its bound
#   gain, loss  the claim rule: CHANGE (gain) or BASE (loss) wins at
#               least 9 pairs in 10 and its median is better by more
#               than BASE's interquartile range
#   unresolved  an end-to-end metric whose spread (IQR / median) on
#               either side exceeds its bound
#   ok          an end-to-end metric within its bound; "-" otherwise
#
# and a host-drift column: BASE's median over the second half of the
# pairs against the first half, flagged DRIFT when the two differ by
# more than BASE's IQR.  Exits 1 when any run failed its checks.
set -euo pipefail

usage() {
  sed -n '2,4p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

PAIRS=10
LOG=""
BASE=""
CHANGE=""
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) PAIRS="${2:-}"; shift 2 || usage ;;
    --log) LOG="${2:-}"; shift 2 || usage ;;
    --) shift; break ;;
    -*) usage ;;
    *)
      if [ -z "$BASE" ]; then BASE="$1"
      elif [ -z "$CHANGE" ]; then CHANGE="$1"
      else usage; fi
      shift ;;
  esac
done
[ -n "$BASE" ] || usage
case "$PAIRS" in ''|*[!0-9]*|0) usage ;; esac
command -v python3 >/dev/null || { echo "ab: python3 is required" >&2; exit 2; }

ROOT=$(git rev-parse --show-toplevel)
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
LOG=${LOG:-${TMPDIR:-/tmp}/ab.$$.jsonl}
: > "$LOG"

export_rev() { # REV DIR: the committed files of REV, no .git
  mkdir -p "$2"
  git -C "$ROOT" archive "$(git -C "$ROOT" rev-parse --verify "$1^{commit}")" \
    | tar -x -C "$2"
}
export_rev "$BASE" "$TMP/base"
if [ -n "$CHANGE" ]; then
  export_rev "$CHANGE" "$TMP/change"
  CHANGE_DIR="$TMP/change"
else
  CHANGE="working tree"
  CHANGE_DIR="$ROOT"
fi

failed=0
run_side() { # SIDE DIR PAIR
  local out rc=0
  out="$TMP/$1.out"
  (cd "$2" && bash bench/e2e/run.sh "${ARGS[@]}") > "$out" || rc=$?
  [ "$rc" -eq 0 ] || failed=1
  # A result line follows its "== WORKLOAD ..." header, one per workload.
  python3 - "$out" "$1" "$3" "$rc" >> "$LOG" <<'PY'
import json, sys
path, side, pair, rc = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
workload = "?"
for line in open(path):
    if line.startswith("== "):
        workload = line.split()[1]
    elif line.startswith("{"):
        print(json.dumps({"side": side, "pair": pair, "workload": workload,
                          "exit": rc, "result": json.loads(line)}))
PY
  echo "ab: pair $3 $1 exit $rc" >&2
}

ARGS=("$@")
for ((p = 1; p <= PAIRS; p++)); do
  if ((p % 2 == 1)); then
    run_side base "$TMP/base" "$p"; run_side change "$CHANGE_DIR" "$p"
  else
    run_side change "$CHANGE_DIR" "$p"; run_side base "$TMP/base" "$p"
  fi
done

echo "ab: BASE $BASE against CHANGE $CHANGE, $PAIRS pairs, run.sh ${ARGS[*]}"
python3 - "$LOG" "$CHANGE_DIR/BENCHMARK.json" <<'PY'
import json, math, statistics, sys

log, bench_json = sys.argv[1], sys.argv[2]
bench = json.load(open(bench_json))
spec = {m["name"]: m for m in bench.get("end_to_end", [])}
better = {m["name"]: m["better"] for m in bench.get("per_layer", [])}
better.update({n: m["better"] for n, m in spec.items()})

runs = {}  # workload -> side -> pair -> result
for line in open(log):
    r = json.loads(line)
    runs.setdefault(r["workload"], {}).setdefault(r["side"], {})[r["pair"]] = r["result"]

def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (math.nan, math.nan)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]

def fmt(x):
    return "%.0f" % x if abs(x) >= 1e4 else "%.4g" % x

for workload, sides in runs.items():
    base, change = sides.get("base", {}), sides.get("change", {})
    common = sorted(set(base) & set(change))
    print("\n== %s (%d pairs)" % (workload, len(common)))
    for side, res in (("base", base), ("change", change)):
        att = sum(r["attempted"] for r in res.values())
        bad = sum(r["failed"] for r in res.values())
        print("  %-6s fail_ratio %s (%d failed of %d)" % (side, fmt(bad / att if att else 0.0), bad, att))
    names = []
    for r in list(base.values()) + list(change.values()):
        for n in r["metrics"]:
            if n not in names:
                names.append(n)
    print("  %-32s %-30s %-30s %7s %6s %-10s %s" % ("metric", "base median [q1, q3]",
          "change median [q1, q3]", "ratio", "wins", "verdict", "base drift"))
    for n in names:
        pts = [(base[p]["metrics"][n]["value"], change[p]["metrics"][n]["value"])
               for p in common if n in base[p]["metrics"] and n in change[p]["metrics"]]
        if not any(x or y for x, y in pts):
            continue  # not measured on this workload
        b = [x for x, _ in pts]
        c = [y for _, y in pts]
        bm, cm = statistics.median(b), statistics.median(c)
        bq, cq = quartiles(b), quartiles(c)
        iqr = bq[1] - bq[0]
        up = better.get(n, "lower") == "higher"
        gain = (cm - bm) if up else (bm - cm)  # > 0: CHANGE is better
        wins = sum(1 for x, y in pts if (y > x if up else y < x))
        losses = sum(1 for x, y in pts if (y < x if up else y > x))
        need = math.ceil(0.9 * len(pts))
        bound = spec[n]["bound"] if n in spec else None
        spread = max((bq[1] - bq[0]) / abs(bm) if bm else 0.0,
                     (cq[1] - cq[0]) / abs(cm) if cm else 0.0)
        if bound is not None and bm and -gain / abs(bm) > bound:
            verdict = "regressed"
        elif wins >= need and gain > iqr:
            verdict = "gain"
        elif losses >= need and -gain > iqr:
            verdict = "loss"
        elif bound is not None:
            verdict = "unresolved" if spread > bound else "ok"
        else:
            verdict = "-"
        half = len(b) // 2
        drift = ""
        if half >= 1:
            first, second = statistics.median(b[:half]), statistics.median(b[half:])
            drift = "%+.1f%%" % (100.0 * (second - first) / first) if first else "n/a"
            if abs(second - first) > iqr:
                drift += " DRIFT"
        ratio = "%.3fx" % (cm / bm) if bm else "-"
        print("  %-32s %-30s %-30s %7s %3d/%-2d %-10s %s" % (n,
              "%s [%s, %s]" % (fmt(bm), fmt(bq[0]), fmt(bq[1])),
              "%s [%s, %s]" % (fmt(cm), fmt(cq[0]), fmt(cq[1])),
              ratio, wins, len(pts), verdict, drift))
PY
echo "ab: log $LOG"
exit "$failed"
