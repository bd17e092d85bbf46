#!/usr/bin/env bash
# End-to-end smoke of the checking service and the documented exit
# codes (0 pass, 1 violation, 2 load/usage error): generate a clean and
# a faulty 200-transaction history, then require `mtc feed` over a live
# `mtc serve` Unix socket to agree with `mtc check` on both — verdicts
# and exit codes alike — and the server to shut down gracefully on
# SIGTERM.  Wired into `dune build @check` from the root dune file.
set -u

SMOKE=service-smoke
. "$(dirname "$0")/smoke_lib.sh" "$1"

# -- fixtures: a clean SER engine and an SI engine injecting lost updates
"$MTC" run --level ser --txns 200 --keys 10 --seed 11 -o "$TMP/good.hist" \
  >/dev/null || fail "clean run must pass (exit 0)"
"$MTC" run --level si --txns 200 --keys 10 --seed 11 \
  --fault lost-update --fault-p 0.2 -o "$TMP/bad.hist" >/dev/null
[ $? -eq 1 ] || fail "faulty run must report a violation (exit 1)"
echo "this is not a history" > "$TMP/junk.hist"

# -- exit codes of the batch checker
"$MTC" check "$TMP/good.hist" --level ser >/dev/null
[ $? -eq 0 ] || fail "check(good) must exit 0"
"$MTC" check "$TMP/bad.hist" --level si >/dev/null
[ $? -eq 1 ] || fail "check(bad) must exit 1"
"$MTC" check "$TMP/junk.hist" >/dev/null 2>&1
[ $? -eq 2 ] || fail "check(junk) must exit 2"

# -- the service must agree, verdicts and exit codes alike
SOCK="$TMP/mtc.sock"
serve_on "$SOCK" "$TMP/serve.log"

"$MTC" feed "$TMP/good.hist" -a "unix:$SOCK" --level ser >/dev/null
[ $? -eq 0 ] || fail "feed(good) must exit 0"
"$MTC" feed "$TMP/bad.hist" -a "unix:$SOCK" --level si > "$TMP/feed_bad.out"
[ $? -eq 1 ] || fail "feed(bad) must exit 1"
grep -q "violation" "$TMP/feed_bad.out" \
  || fail "feed(bad) must print the counterexample"
"$MTC" feed "$TMP/junk.hist" -a "unix:$SOCK" >/dev/null 2>&1
[ $? -eq 2 ] || fail "feed(junk) must exit 2"

# -- the stats subcommand renders the same counters the server tracks
"$MTC" stats -a "unix:$SOCK" > "$TMP/stats.out" \
  || fail "stats must reach a live server"
grep -Eq '^txns_fed +[1-9]' "$TMP/stats.out" \
  || fail "stats table must include the fed txns (see $TMP/stats.out)"
grep -Eq '^violations +[1-9]' "$TMP/stats.out" \
  || fail "stats table must count the injected violation"
grep -Eq '^feed_ns\.p99 +[0-9]' "$TMP/stats.out" \
  || fail "stats table must flatten the feed_ns histogram"

# -- graceful shutdown: exit 0 and a metrics dump
stop_server
grep -q '"txns_fed"' "$TMP/serve.log" \
  || fail "server must dump metrics JSON on shutdown"

echo "service-smoke: OK"
