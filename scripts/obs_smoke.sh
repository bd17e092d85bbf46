#!/usr/bin/env bash
# End-to-end smoke of the observability surface: `mtc check --profile`
# must print a phase table whose footer accounts for most of the wall
# time, `--trace` must write Chrome trace-event JSON that a JSON parser
# accepts, and `mtc serve --metrics-port` must expose Prometheus text
# over HTTP that `mtc stats --metrics-http` can scrape.  Wired into
# `dune build @check` from the root dune file.
set -u

SMOKE=obs-smoke
. "$(dirname "$0")/smoke_lib.sh" "$1"

"$MTC" run --level si --txns 500 --keys 50 --seed 7 -o "$TMP/h.hist" \
  >/dev/null || fail "fixture run must pass"

# -- mtc check --profile: a phase table, with the big phases present
"$MTC" check "$TMP/h.hist" --level si --profile > "$TMP/profile.out" \
  || fail "check --profile must still pass"
for phase in parse infer check; do
  grep -q "^$phase " "$TMP/profile.out" \
    || fail "--profile must report the '$phase' phase (see $TMP/profile.out)"
done
grep -q "of wall" "$TMP/profile.out" \
  || fail "--profile must print the wall-time footer"

# -- mtc check --trace: parseable Chrome trace JSON with complete events
"$MTC" check "$TMP/h.hist" --level si --trace "$TMP/trace.json" >/dev/null \
  || fail "check --trace must still pass"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$TMP/trace.json" <<'PY' || fail "trace JSON invalid"
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "no events"
assert all(e["ph"] == "X" for e in events), "non-complete event"
PY
else
  grep -q '"traceEvents"' "$TMP/trace.json" || fail "trace JSON missing key"
fi

# -- serve --metrics-port 0: scrape Prometheus text through mtc stats
SOCK="$TMP/mtc.sock"
serve_on "$SOCK" "$TMP/serve.log" --metrics-port 0
PORT=$(metrics_port "$TMP/serve.log")
[ -n "$PORT" ] || fail "server did not announce its metrics port"

"$MTC" feed "$TMP/h.hist" -a "unix:$SOCK" --level si >/dev/null \
  || fail "feed must pass"

"$MTC" stats --metrics-http "$PORT" > "$TMP/prom.out" \
  || fail "stats --metrics-http must scrape"
grep -q '^# TYPE mtc_txns_fed_total counter$' "$TMP/prom.out" \
  || fail "scrape must carry typed counters"
grep -q '^mtc_feed_ns_bucket{le="+Inf"}' "$TMP/prom.out" \
  || fail "scrape must carry histogram buckets"

# -- mtc stats over the wire: aligned table and raw JSON
"$MTC" stats -a "unix:$SOCK" > "$TMP/stats.out" \
  || fail "stats over the socket must work"
grep -Eq '^txns_fed +[1-9]' "$TMP/stats.out" \
  || fail "stats table must show the fed txns (see $TMP/stats.out)"
"$MTC" stats -a "unix:$SOCK" --json | grep -Eq '"txns_fed":[1-9]' \
  || fail "stats --json must emit the raw frame"

stop_server

echo "obs-smoke: OK"
