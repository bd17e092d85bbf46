#!/usr/bin/env bash
# Benchmark diff between two promoted BENCH_*.json files (JSONL, one
# experiment object per line — see Bench_util.experiment_json).
#
#   bash scripts/bench_diff.sh BENCH_PR3.json BENCH_PR4.json
#   bash scripts/bench_diff.sh --max-regress 300 BENCH_PR5.json BENCH_PR6.json
#
# Tables are matched by (experiment, section), rows by their first
# cell, and columns by header name — so a table that gains a column
# between PRs still diffs on the shared ones.  Every shared numeric
# column is reported as old -> new with a relative delta.
#
# Without --max-regress the script is advisory and ALWAYS exits 0.
# With --max-regress PCT it becomes a gate: any shared numeric cell
# that regresses by more than PCT percent — got slower for
# time/latency/memory columns, dropped for throughput/speedup columns
# ("txns/s", "speedup") — fails the run with exit 1 and a list of the
# offending rows.  PCT should be generous (hundreds) when the baseline
# was promoted on different hardware or under different load.
#
# --expect-new PAT (repeatable) marks tables or rows that are known to
# be new this PR: entries whose label contains PAT are acknowledged in
# one summary line instead of being listed as missing-baseline noise.
#
# Tables and rows present only in OLD (retired or renamed) are listed
# once at the end; like the missing-baseline list, that is advisory and
# never fails the run.

set -u

MAX_REGRESS=""
EXPECT_NEW=""
while [ $# -gt 0 ]; do
  case "$1" in
    --max-regress)
      MAX_REGRESS="${2:-}"
      shift 2 || { echo "bench_diff: --max-regress needs a value" >&2; exit 2; }
      ;;
    --expect-new)
      [ -n "${2:-}" ] || { echo "bench_diff: --expect-new needs a value" >&2; exit 2; }
      EXPECT_NEW="$EXPECT_NEW$2
"
      shift 2
      ;;
    *) break ;;
  esac
done

OLD="${1:-}"
NEW="${2:-}"

if [ -z "$OLD" ] || [ -z "$NEW" ]; then
  echo "usage: bench_diff.sh [--max-regress PCT] OLD.json NEW.json" >&2
  exit 0
fi
if [ ! -f "$OLD" ] || [ ! -f "$NEW" ]; then
  echo "bench_diff: missing $OLD or $NEW — nothing to compare (advisory, not failing)"
  exit 0
fi
if ! command -v python3 >/dev/null 2>&1; then
  echo "bench_diff: python3 not available — skipping (advisory, not failing)"
  exit 0
fi

MAX_REGRESS="$MAX_REGRESS" EXPECT_NEW="$EXPECT_NEW" python3 - "$OLD" "$NEW" <<'PY'
import json, os, sys

def load(path):
    tables = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                exp = json.loads(line)
            except json.JSONDecodeError:
                continue
            for t in exp.get("tables", []):
                key = (exp.get("experiment", ""), t.get("section", ""))
                header, rows = tables.setdefault(key, ([], {}))
                if not header:
                    header.extend(t.get("header", []))
                for row in t.get("rows", []):
                    if row:
                        rows[row[0]] = row
    return tables

def num(s):
    try:
        return float(s)
    except (TypeError, ValueError):
        return None

def cell(header, row, col):
    try:
        return row[header.index(col)]
    except (ValueError, IndexError):
        return None

# Columns where bigger is better; everything else numeric (times,
# latencies, words, bytes) regresses by growing.
def higher_is_better(col):
    c = col.lower()
    return "txns/s" in c or "speedup" in c or "/s" in c

def main():
    max_regress = None
    raw = os.environ.get("MAX_REGRESS", "")
    if raw:
        try:
            max_regress = float(raw)
        except ValueError:
            print(f"bench_diff: bad --max-regress value {raw!r}", file=sys.stderr)
            sys.exit(2)
    expect_new = [p for p in os.environ.get("EXPECT_NEW", "").splitlines() if p]
    old, new = load(sys.argv[1]), load(sys.argv[2])
    printed = False
    baseline_missing = []
    expected_new = []
    regressions = []

    def note_missing(label):
        (expected_new if any(p in label for p in expect_new)
         else baseline_missing).append(label)
    for key, (nheader, nrows) in new.items():
        exp, section = key
        if key not in old:
            label = f"[{exp}] {section}" if section else f"[{exp}]"
            note_missing(f"{label} (whole table)")
            continue
        oheader, orows = old[key]
        shared = [c for c in nheader[1:] if c in oheader[1:]]
        lines = []
        for name, nrow in nrows.items():
            orow = orows.get(name)
            if orow is None:
                note_missing(f"[{exp}] {name}")
                continue
            cells = []
            for col in shared:
                ov, nv = cell(oheader, orow, col), cell(nheader, nrow, col)
                a, b = num(ov), num(nv)
                if a is None or b is None or (a == 0 and b == 0):
                    continue
                delta = f"{100.0 * (b - a) / a:+.0f}%" if a != 0 else "new"
                cells.append(f"{col}: {ov} -> {nv} ({delta})")
                if max_regress is not None and a > 0:
                    change = 100.0 * (b - a) / a
                    bad = (-change if higher_is_better(col) else change)
                    if bad > max_regress:
                        regressions.append(
                            f"[{exp}] {name} {col}: {ov} -> {nv} "
                            f"({delta}, limit {max_regress:.0f}%)")
            if cells:
                lines.append(f"  {name}:  " + "  |  ".join(cells))
        if lines:
            if not printed:
                mode = ("gate" if max_regress is not None else "advisory")
                print(f"benchmark diff: {sys.argv[1]} -> {sys.argv[2]}"
                      f" ({mode})")
                printed = True
            print(f"[{exp}] {section}" if section else f"[{exp}]")
            for l in sorted(lines):
                print(l)
    if not printed:
        print("bench_diff: no comparable tables between "
              f"{sys.argv[1]} and {sys.argv[2]}")
    if expected_new:
        print(f"bench_diff: {len(expected_new)} expected-new entr(ies) "
              f"matched --expect-new (baseline starts next PR)")
    if baseline_missing:
        print(f"bench_diff: {len(baseline_missing)} row(s) have no baseline "
              f"in {sys.argv[1]} (new this PR, nothing to diff):")
        for entry in sorted(baseline_missing):
            print(f"  {entry}")
    dropped = []
    for key, (_, orows) in old.items():
        exp, section = key
        if key not in new:
            label = f"[{exp}] {section}" if section else f"[{exp}]"
            dropped.append(f"{label} (whole table)")
        else:
            nrows = new[key][1]
            dropped.extend(f"[{exp}] {name}" for name in orows
                           if name not in nrows)
    if dropped:
        print(f"bench_diff: {len(dropped)} row(s) of {sys.argv[1]} are gone "
              f"from {sys.argv[2]} (retired or renamed, nothing to diff):")
        for entry in sorted(dropped):
            print(f"  {entry}")
    if max_regress is not None and regressions:
        print(f"bench_diff: {len(regressions)} regression(s) beyond "
              f"{max_regress:.0f}%:", file=sys.stderr)
        for r in sorted(regressions):
            print(f"  {r}", file=sys.stderr)
        sys.exit(1)

try:
    main()
except BrokenPipeError:
    pass
PY
exit $?
