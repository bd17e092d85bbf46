#!/usr/bin/env bash
# End-to-end smoke of the parallel checking path: `mtc gen` must produce
# text and binary corpora that load identically, and `mtc check -j N`
# must print byte-identical output (stats line, verdict, counterexample)
# for every N on clean and faulty histories in both formats, with the
# faulty one failing SI through a DIVERGENCE counterexample.  Also runs
# the service smoke with MTC_JOBS set, exercising multi-shard sessions
# end to end.  Wired into `dune build @check` from the root dune file.
set -u

SMOKE=par-smoke
. "$(dirname "$0")/smoke_lib.sh" "$1"

# -- fixtures: a clean generated corpus (text + bin) and a faulty run
"$MTC" gen --txns 3000 --keys 300 --sessions 8 --seed 11 \
  --out "$TMP/clean.hist" --out-bin "$TMP/clean.bin" >/dev/null \
  || fail "mtc gen must succeed"
"$MTC" run --level ser --fault lost-update --fault-p 0.3 --txns 800 \
  --seed 7 -o "$TMP/faulty.hist" >/dev/null 2>&1
[ -f "$TMP/faulty.hist" ] || fail "faulty fixture must be written"

# -- the binary and text encodings must decode to the same history:
# identical stats lines and identical verdicts
check_out() { # file level jobs -> stdout (exit code tolerated)
  "$MTC" check "$1" --level "$2" -j "$3"
}

for level in sser ser si; do
  check_out "$TMP/clean.hist" "$level" 1 > "$TMP/text.out" \
    || fail "clean text history must pass $level"
  check_out "$TMP/clean.bin" "$level" 1 > "$TMP/bin.out" \
    || fail "clean bin history must pass $level"
  cmp -s "$TMP/text.out" "$TMP/bin.out" \
    || fail "text and bin checks disagree at $level"
done

# -- byte-identical output across -j on every (file, level) pair,
# including a violating history (counterexample selection is the part
# most at risk of nondeterminism)
for f in "$TMP/clean.bin" "$TMP/faulty.hist"; do
  for level in ser si; do
    check_out "$f" "$level" 1 > "$TMP/j1.out"; rc1=$?
    for j in 2 4; do
      check_out "$f" "$level" "$j" > "$TMP/j$j.out"; rc=$?
      [ "$rc" -eq "$rc1" ] \
        || fail "$(basename "$f") $level: exit $rc at -j $j vs $rc1 at -j 1"
      cmp -s "$TMP/j1.out" "$TMP/j$j.out" \
        || fail "$(basename "$f") $level: output differs at -j $j (diff $TMP/j1.out $TMP/j$j.out)"
    done
  done
done

# -- the cmp above would still pass if the SI screen stopped firing:
# the lost-update fixture must fail SI through DIVERGENCE at every -j
for j in 1 2 4; do
  check_out "$TMP/faulty.hist" si "$j" > "$TMP/div.out"
  grep -q '^  DIVERGENCE on x' "$TMP/div.out" \
    || fail "faulty.hist si -j $j: no DIVERGENCE line (see $TMP/div.out)"
done

# -- explicit --format must agree with sniffing, and reject mismatches
"$MTC" check "$TMP/clean.bin" --format bin -l ser -j 2 > /dev/null \
  || fail "--format bin must accept a bin file"
"$MTC" check "$TMP/clean.hist" --format text -l ser > /dev/null \
  || fail "--format text must accept a text file"
if "$MTC" check "$TMP/clean.bin" --format text -l ser > /dev/null 2>&1; then
  fail "--format text on a bin file must fail"
fi

# -- the service under multi-shard settings: reuse the service smoke
# with MTC_JOBS exported, so every `mtc serve` in it runs sharded
SERVICE_SMOKE="$(dirname "$0")/service_smoke.sh"
if [ -f "$SERVICE_SMOKE" ]; then
  for j in 2 4; do
    MTC_JOBS=$j bash "$SERVICE_SMOKE" "$MTC" \
      || fail "service smoke must pass with MTC_JOBS=$j"
  done
fi

echo "par-smoke: OK"
