#!/usr/bin/env bash
# End-to-end smoke of bounded-memory checking (`--gc-watermark`): a
# long clean stream fed through a live server under watermark GC must
# actually compact (gc_runs > 0) and hold live words well below an
# unbounded session of the same stream; and a faulty history fed
# through an aggressive absolute ceiling must render a counterexample
# byte-identical to the unbounded session's — under value resolution
# and under each timestamp mode (`--timestamps verify|trust`), whose
# chains the compactions cut.  Wired into `dune build @check` from the
# root dune file.
set -u

SMOKE=gc-smoke
. "$(dirname "$0")/smoke_lib.sh" "$1"

# The number after "KEY": in the single-line JSON the server returns.
stat_of() { grep -o "\"$2\":[0-9]*" "$1" | head -1 | cut -d: -f2; }

# The server's compaction count, from the `mtc stats` table.
gc_runs_now() {
  "$MTC" stats -a "unix:$SOCK" | grep -Eo '^gc_runs +[0-9]+' | awk '{print $2}'
}

# -- fixtures: a long clean stream and a faulty SI history
"$MTC" gen --txns 20000 --keys 500 --sessions 8 --seed 7 \
  --out-bin "$TMP/clean.bin" >/dev/null || fail "mtc gen must succeed"
"$MTC" run --level si --txns 3000 --keys 40 --seed 13 \
  --fault lost-update --fault-p 0.005 -o "$TMP/bad.hist" >/dev/null
[ $? -eq 1 ] || fail "faulty run must report a violation (exit 1)"

# -- one server; its default policy is auto, feeds may override it
SOCK="$TMP/mtc.sock"
serve_on "$SOCK" "$TMP/serve.log" --gc-watermark auto

# -- unbounded baseline: the same stream with GC forced off.  --stats
# runs while the session is still open, so live_words is this session's.
"$MTC" feed "$TMP/clean.bin" -a "unix:$SOCK" --level ser \
  --gc-watermark off --stats > "$TMP/feed_off.out"
[ $? -eq 0 ] || fail "feed(clean, gc off) must pass"
LIVE_OFF=$(stat_of "$TMP/feed_off.out" live_words)
[ -n "$LIVE_OFF" ] && [ "$LIVE_OFF" -gt 0 ] \
  || fail "unbounded session must report live_words (see $TMP/feed_off.out)"

# -- bounded run: inherits the server's auto policy
"$MTC" feed "$TMP/clean.bin" -a "unix:$SOCK" --level ser \
  --stats > "$TMP/feed_auto.out"
[ $? -eq 0 ] || fail "feed(clean, gc auto) must pass with the same verdict"
GC_RUNS=$(stat_of "$TMP/feed_auto.out" gc_runs)
RECLAIMED=$(stat_of "$TMP/feed_auto.out" gc_reclaimed_words)
LIVE_AUTO=$(stat_of "$TMP/feed_auto.out" live_words)
[ -n "$GC_RUNS" ] && [ "$GC_RUNS" -gt 0 ] \
  || fail "auto watermark must have compacted (gc_runs > 0)"
[ -n "$RECLAIMED" ] && [ "$RECLAIMED" -gt 0 ] \
  || fail "compactions must have reclaimed words"
[ -n "$LIVE_AUTO" ] && [ $((3 * LIVE_AUTO)) -lt "$LIVE_OFF" ] \
  || fail "bounded live words ($LIVE_AUTO) must be well below unbounded ($LIVE_OFF)"

# -- the stats subcommand surfaces the GC counters as table rows
"$MTC" stats -a "unix:$SOCK" > "$TMP/stats.out" \
  || fail "stats must reach a live server"
grep -Eq '^gc_runs +[1-9]' "$TMP/stats.out" \
  || fail "stats table must include gc_runs (see $TMP/stats.out)"
grep -Eq '^gc_reclaimed_words +[1-9]' "$TMP/stats.out" \
  || fail "stats table must include gc_reclaimed_words"

# -- verdict equivalence: a faulty history poisoned after GC cycles
# (aggressive absolute ceiling) renders the identical counterexample
GC0=$(stat_of "$TMP/stats.out" gc_runs)
[ -n "$GC0" ] || GC0=$(grep -Eo '^gc_runs +[0-9]+' "$TMP/stats.out" | awk '{print $2}')
"$MTC" feed "$TMP/bad.hist" -a "unix:$SOCK" --level si \
  --gc-watermark off > "$TMP/bad_off.out"
[ $? -eq 1 ] || fail "feed(bad, gc off) must exit 1"
"$MTC" feed "$TMP/bad.hist" -a "unix:$SOCK" --level si \
  --gc-watermark 32768 > "$TMP/bad_gc.out"
[ $? -eq 1 ] || fail "feed(bad, gc 32768) must exit 1"
rendered_of "$TMP/bad_off.out" > "$TMP/bad_off.rendered"
rendered_of "$TMP/bad_gc.out" > "$TMP/bad_gc.rendered"
[ -s "$TMP/bad_off.rendered" ] || fail "unbounded faulty feed must render"
cmp -s "$TMP/bad_off.rendered" "$TMP/bad_gc.rendered" \
  || fail "bounded counterexample must be byte-identical to unbounded \
(diff $TMP/bad_off.rendered $TMP/bad_gc.rendered)"
"$MTC" stats -a "unix:$SOCK" > "$TMP/stats2.out" \
  || fail "stats must reach a live server after the faulty feeds"
GC1=$(grep -Eo '^gc_runs +[0-9]+' "$TMP/stats2.out" | awk '{print $2}')
[ -n "$GC0" ] && [ -n "$GC1" ] && [ "$GC1" -gt "$GC0" ] \
  || fail "the aggressive ceiling must have compacted before poisoning \
(gc_runs $GC0 -> $GC1)"

# -- the same equivalence on the timestamp path: the ceiling's
# compactions cut the timestamp chains, and the rendering must not move
for TS in verify trust; do
  "$MTC" feed "$TMP/bad.hist" -a "unix:$SOCK" --level si --timestamps "$TS" \
    --gc-watermark off > "$TMP/bad_${TS}_off.out"
  [ $? -eq 1 ] || fail "feed(bad, $TS, gc off) must exit 1"
  BEFORE=$(gc_runs_now)
  "$MTC" feed "$TMP/bad.hist" -a "unix:$SOCK" --level si --timestamps "$TS" \
    --gc-watermark 32768 > "$TMP/bad_${TS}_gc.out"
  [ $? -eq 1 ] || fail "feed(bad, $TS, gc 32768) must exit 1"
  AFTER=$(gc_runs_now)
  [ -n "$BEFORE" ] && [ -n "$AFTER" ] && [ "$AFTER" -gt "$BEFORE" ] \
    || fail "the $TS feed through the ceiling must have compacted \
(gc_runs $BEFORE -> $AFTER)"
  rendered_of "$TMP/bad_${TS}_off.out" > "$TMP/bad_${TS}_off.rendered"
  rendered_of "$TMP/bad_${TS}_gc.out" > "$TMP/bad_${TS}_gc.rendered"
  [ -s "$TMP/bad_${TS}_off.rendered" ] \
    || fail "unbounded $TS faulty feed must render"
  cmp -s "$TMP/bad_${TS}_off.rendered" "$TMP/bad_${TS}_gc.rendered" \
    || fail "bounded $TS counterexample must be byte-identical to unbounded \
(diff $TMP/bad_${TS}_off.rendered $TMP/bad_${TS}_gc.rendered)"
done

stop_server

echo "gc-smoke: OK"
