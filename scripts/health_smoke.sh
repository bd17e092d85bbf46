#!/usr/bin/env bash
# End-to-end smoke of service introspection: a server with one actively
# feeding and one stalled session must flag the stalled one as pinning
# the GC horizon and name its sid on every surface — `mtc stats
# --sessions`, `mtc top --once`, the Prometheus exposition and the JSONL
# journal — and, with `--pin-fence close`, fence it so the aggregate
# live-words bound holds again.  Wired into `dune build @check` from the
# root dune file.
set -u

SMOKE=health-smoke
. "$(dirname "$0")/smoke_lib.sh" "$1"

"$MTC" gen --txns 300 --sessions 4 --keys 50 --seed 7 -o "$TMP/h.hist" \
  >/dev/null || fail "fixture gen must pass"

start_server() { # $1 = fence policy
  SOCK="$TMP/mtc.sock"
  serve_on "$SOCK" "$TMP/serve.log" --metrics-port 0 \
    --pin-warn-after 0.4 --pin-fence "$1" --journal "$TMP/journal.jsonl"
  PORT=$(metrics_port "$TMP/serve.log")
  [ -n "$PORT" ] || fail "server did not announce its metrics port"
}

# ---- phase 1: detection (fence off) -------------------------------
rm -f "$TMP/journal.jsonl"
start_server off

# sid 1: feeds one transaction then stalls for the whole phase
"$MTC" feed "$TMP/h.hist" -a "unix:$SOCK" --delay 60 \
  > "$TMP/stalled.log" 2>&1 &
STALLED_PID=$!
FEED_PIDS="$STALLED_PID"
sleep 0.2
# sid 2: keeps feeding across the detection window
"$MTC" feed "$TMP/h.hist" -a "unix:$SOCK" --delay 0.01 \
  > "$TMP/active.log" 2>&1 &
ACTIVE_PID=$!
FEED_PIDS="$STALLED_PID $ACTIVE_PID"

sleep 1.5

# -- surface 1: the per-session table names the pinned sid
"$MTC" stats -a "unix:$SOCK" --sessions > "$TMP/sessions.out" \
  || fail "stats --sessions must answer"
grep -Eq '^1 .*PINNED' "$TMP/sessions.out" \
  || fail "stats --sessions must flag sid 1 as PINNED (see $TMP/sessions.out)"
grep -Eq '^2 .*live' "$TMP/sessions.out" \
  || fail "the active session must stay live (see $TMP/sessions.out)"

# -- surface 2: mtc top --once renders the same view
"$MTC" top -a "unix:$SOCK" --once > "$TMP/top.out" \
  || fail "top --once must render"
grep -q 'PINNED' "$TMP/top.out" || fail "top must show the pinned session"
grep -Eq '^1 ' "$TMP/top.out" || fail "top must list sid 1"
grep -q 'pin-warn sid=1' "$TMP/top.out" \
  || fail "top's event ticker must carry the pin warning"

# -- surface 3: the Prometheus gauge trips, with per-session series
"$MTC" stats --metrics-http "$PORT" > "$TMP/prom.out" \
  || fail "stats --metrics-http must scrape"
grep -Eq '^mtc_horizon_pinned_sessions [1-9]' "$TMP/prom.out" \
  || fail "pinned-sessions gauge must trip"
grep -q '^mtc_session_pinned{sid="1"} 1' "$TMP/prom.out" \
  || fail "per-session pinned series must name sid 1"
grep -Eq '^mtc_session_feeds{sid="2"} [1-9]' "$TMP/prom.out" \
  || fail "per-session feed series must cover the active session"
grep -q '^mtc_journal_dropped_events ' "$TMP/prom.out" \
  || fail "journal drop counter must be exposed"

# the active session must finish clean despite the pinned neighbor
wait "$ACTIVE_PID" || fail "active feed must pass (see $TMP/active.log)"
grep -q 'PASS' "$TMP/active.log" || fail "active session verdict lost"
FEED_PIDS="$STALLED_PID"

kill "$STALLED_PID" 2>/dev/null; wait "$STALLED_PID" 2>/dev/null
FEED_PIDS=""
stop_server

# -- surface 4: the JSONL journal parses and names the pinned sid
if command -v python3 >/dev/null 2>&1; then
  python3 - "$TMP/journal.jsonl" <<'PY' || fail "journal JSONL invalid"
import json, sys
events = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
assert events, "empty journal"
kinds = {e["kind"] for e in events}
assert "session_open" in kinds, "no open events"
assert any(e["kind"] == "pin_warn" and e["a"] == 1 for e in events), \
    "pin_warn for sid 1 missing"
for e in events:
    assert {"ts", "kind", "dom", "a", "b", "c"} <= e.keys(), f"bad line {e}"
PY
else
  grep -q '"kind":"pin_warn","dom":[0-9]*,"a":1' "$TMP/journal.jsonl" \
    || fail "journal must carry pin_warn for sid 1"
fi

# ---- phase 2: fencing (fence close) re-bounds memory ---------------
rm -f "$TMP/journal.jsonl"
start_server close

"$MTC" feed "$TMP/h.hist" -a "unix:$SOCK" --delay 60 \
  > "$TMP/stalled2.log" 2>&1 &
STALLED_PID=$!
FEED_PIDS="$STALLED_PID"

sleep 1.5

# the stalled session was fenced: no live sessions remain, so the
# aggregate live-words gauge is back to zero — the memory bound holds
"$MTC" stats -a "unix:$SOCK" --sessions > "$TMP/sessions2.out" \
  || fail "stats --sessions must answer after the fence"
grep -q 'no live sessions' "$TMP/sessions2.out" \
  || fail "fenced session must be gone (see $TMP/sessions2.out)"
"$MTC" stats -a "unix:$SOCK" --json > "$TMP/stats2.json" \
  || fail "stats --json must answer"
grep -q '"pin_fences":1' "$TMP/stats2.json" \
  || fail "fence counter must tick (see $TMP/stats2.json)"
grep -q '"live_words":0' "$TMP/stats2.json" \
  || fail "fence must release the session's live words (see $TMP/stats2.json)"
grep -q 'pin-fence sid=1' <("$MTC" stats -a "unix:$SOCK" --events) \
  || fail "journal must carry the fence event"

kill "$STALLED_PID" 2>/dev/null; wait "$STALLED_PID" 2>/dev/null
FEED_PIDS=""
stop_server

echo "health-smoke: OK"
