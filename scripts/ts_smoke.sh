#!/usr/bin/env bash
# End-to-end smoke of the timestamp-assisted fast path (ROADMAP item 2):
# `mtc gen` clean / skewed / lying corpora (same seed => same ops and
# values, only the timestamps differ), `--timestamps verify` must agree
# byte-for-byte with `ignore` everywhere while reporting every
# certification mismatch on stderr, `trust` must do the least work on
# a clean corpus (its profile skips the duplicate-value screen and the
# write table that `ignore` runs), and `-j 1/2/4` must print
# byte-identical output in all three modes.  A corpus with one
# duplicate write must get the same malformed verdict from ignore and
# verify at every -j.  Wired into `dune build @check` from the root
# dune file.
set -u

SMOKE=ts-smoke
. "$(dirname "$0")/smoke_lib.sh" "$1"

# -- corpora.  The lying corpus reports the timestamp window of a random
# earlier transaction for ~2% of txns; the skewed corpus drifts every
# window by up to 3 ticks but stays honest about ordering intent.
GEN="--txns 60000 --keys 4000 --sessions 16 --seed 23"
"$MTC" gen $GEN --out-bin "$TMP/clean.bin" >/dev/null \
  || fail "mtc gen (clean) must succeed"
"$MTC" gen $GEN --ts-lie 0.02 --out-bin "$TMP/lying.bin" >/dev/null \
  || fail "mtc gen --ts-lie must succeed"
"$MTC" gen $GEN --ts-skew 3 --out-bin "$TMP/skew.bin" >/dev/null \
  || fail "mtc gen --ts-skew must succeed"

check() { # file level mode jobs; stdout/stderr to $TMP/out,err
  "$MTC" check "$1" --level "$2" --timestamps "$3" -j "$4" \
    > "$TMP/out" 2> "$TMP/err"
}

# -- clean corpus: all three modes pass every strong level with
# byte-identical stdout, and verify has nothing to report
for level in sser ser si; do
  check "$TMP/clean.bin" "$level" ignore 1 \
    || fail "clean corpus must pass $level (ignore)"
  mv "$TMP/out" "$TMP/base.out"
  for mode in trust verify; do
    check "$TMP/clean.bin" "$level" "$mode" 1 \
      || fail "clean corpus must pass $level ($mode)"
    cmp -s "$TMP/base.out" "$TMP/out" \
      || fail "clean corpus: $mode stdout differs from ignore at $level"
    [ -s "$TMP/err" ] \
      && fail "clean corpus: $mode reported mismatches at $level"
  done
done

# -- skewed-but-honest corpus: commit order is intact, so verify's
# predictions all certify — same verdict, still nothing on stderr
for level in ser si; do
  check "$TMP/skew.bin" "$level" ignore 1 \
    || fail "skewed corpus must pass $level (ignore)"
  mv "$TMP/out" "$TMP/base.out"
  check "$TMP/skew.bin" "$level" verify 1 \
    || fail "skewed corpus must pass $level (verify)"
  cmp -s "$TMP/base.out" "$TMP/out" \
    || fail "skewed corpus: verify stdout differs from ignore at $level"
done

# -- lying corpus: SER/SI verdicts ignore timestamps, so ignore still
# passes; verify must agree on stdout AND surface the lies on stderr.
# (SSER is excluded: its real-time edges are derived from the lying
# timestamps even in ignore mode, so the verdicts legitimately differ.)
for level in ser si; do
  check "$TMP/lying.bin" "$level" ignore 1 \
    || fail "lying corpus must still pass $level (ignore: values are clean)"
  mv "$TMP/out" "$TMP/base.out"
  check "$TMP/lying.bin" "$level" verify 1 \
    || fail "lying corpus must pass $level (verify falls back on mismatch)"
  cmp -s "$TMP/base.out" "$TMP/out" \
    || fail "lying corpus: verify stdout differs from ignore at $level"
  grep -q "timestamp certification" "$TMP/err" \
    || fail "lying corpus: verify must report certification mismatches at $level"
  # trust believes the lies: tolerated verdict, but never a crash
  check "$TMP/lying.bin" "$level" trust 1
  rc=$?
  [ "$rc" -le 1 ] || fail "lying corpus: trust must exit 0/1 at $level, got $rc"
done

# -- trust does the least work on a clean corpus: its --profile phase
# table lists the timestamp chains (check/ts/chains) and neither the
# duplicate-value screen (check/unique) nor the write table
# (infer/index/writers); ignore's lists both.  The phases are counted,
# not timed: both skipped passes are flat scans, and a "trust must not
# be slower than ignore" timing failed about one run in ten on correct
# code.
phases() { # mode -> phase names of a profiled SER check, one a line
  "$MTC" check "$TMP/clean.bin" --level ser --timestamps "$1" --profile -j 1 \
    > "$TMP/prof" 2>/dev/null || fail "profiled run must pass ($1)"
  awk '{ print $1 }' "$TMP/prof"
}
p_trust=$(phases trust)
p_ignore=$(phases ignore)
grep -qx "check/ts/chains" <<< "$p_trust" \
  || fail "trust's profile must list check/ts/chains"
for phase in check/unique infer/index/writers; do
  grep -qx "$phase" <<< "$p_trust" && fail "trust's profile lists $phase"
  grep -qx "$phase" <<< "$p_ignore" \
    || fail "ignore's profile must list $phase"
done

# -- byte-identical stdout and stderr across -j in all three modes, on
# the corpus most at risk (lying: verify exercises fallback + report)
for mode in ignore trust verify; do
  check "$TMP/lying.bin" ser "$mode" 1; rc1=$?
  mv "$TMP/out" "$TMP/j1.out"; mv "$TMP/err" "$TMP/j1.err"
  for j in 2 4; do
    check "$TMP/lying.bin" ser "$mode" "$j"; rc=$?
    [ "$rc" -eq "$rc1" ] || fail "$mode: exit $rc at -j $j vs $rc1 at -j 1"
    cmp -s "$TMP/j1.out" "$TMP/out" \
      || fail "$mode: stdout differs at -j $j"
    cmp -s "$TMP/j1.err" "$TMP/err" \
      || fail "$mode: stderr differs at -j $j"
  done
done

# -- duplicate-value corpus: a small text corpus where the last write
# to an already-written key takes the value the key's first write
# stored.  ignore and verify run the same screen, so each level prints
# the same malformed verdict, byte for byte, in both modes at every
# -j.  trust skips the screen by design: it only must not crash.
"$MTC" gen --txns 3000 --keys 200 --sessions 8 --seed 29 -o "$TMP/small.txt" \
  >/dev/null || fail "mtc gen -o must succeed"
awk '
  NR == FNR {
    if ($1 == "txn")
      for (i = 7; i <= NF; i++)
        if ($i ~ /^W\(x[0-9]+\):=/) {
          k = substr($i, 4, index($i, ")") - 4)
          if (!(k in first)) { first[k] = substr($i, index($i, "=") + 1); at[k] = FNR }
          else if (at[k] < FNR) { line = FNR; field = i; key = k }
        }
    next
  }
  FNR == line { $field = "W(x" key "):=" first[key] }
  { print }' "$TMP/small.txt" "$TMP/small.txt" > "$TMP/dup.txt"
cmp -s "$TMP/small.txt" "$TMP/dup.txt" && fail "no duplicate was planted"
for level in ser si sser; do
  rm -f "$TMP/dup.out" "$TMP/dup.err"
  for mode in ignore verify; do
    for j in 1 2 4; do
      check "$TMP/dup.txt" "$level" "$mode" "$j"; rc=$?
      [ "$rc" -eq 1 ] \
        || fail "duplicate corpus: exit $rc at $level ($mode, -j $j), want 1"
      grep -q "malformed history: writes of value" "$TMP/out" \
        || fail "duplicate corpus: no malformed verdict at $level ($mode, -j $j)"
      if [ ! -e "$TMP/dup.out" ]; then
        mv "$TMP/out" "$TMP/dup.out"; mv "$TMP/err" "$TMP/dup.err"
      else
        cmp -s "$TMP/dup.out" "$TMP/out" \
          || fail "duplicate corpus: stdout differs at $level ($mode, -j $j)"
        cmp -s "$TMP/dup.err" "$TMP/err" \
          || fail "duplicate corpus: stderr differs at $level ($mode, -j $j)"
      fi
    done
  done
  check "$TMP/dup.txt" "$level" trust 1; rc=$?
  [ "$rc" -le 1 ] || fail "duplicate corpus: trust must exit 0/1 at $level, got $rc"
done

echo "ts-smoke: OK"
