# Shared pieces of the smoke scripts: the temporary directory and its
# cleanup, `fail`, and the helpers of the smokes that start `mtc serve`.
# Source it with the mtc binary as the argument, after naming the smoke
# in SMOKE:
#
#   SMOKE=gc-smoke
#   . "$(dirname "$0")/smoke_lib.sh" "$1"
#
# It sets MTC and a fresh temporary directory TMP.  On exit the server
# in SERVER_PID (if any) is killed and reaped, any feeds listed in
# FEED_PIDS are killed, and TMP is removed.

MTC="$1"
TMP=$(mktemp -d)
SERVER_PID=""
FEED_PIDS=""
cleanup() {
  [ -n "$FEED_PIDS" ] && kill $FEED_PIDS 2>/dev/null
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
  [ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() { echo "$SMOKE: FAIL: $*" >&2; exit 1; }

# Wait up to 5 s for the Unix socket $1 to appear.
wait_sock() {
  for _ in $(seq 1 100); do [ -S "$1" ] && return 0; sleep 0.05; done
  return 1
}

# Start `mtc serve` on the Unix socket $1, logging to $2, with the
# remaining arguments, and fail unless it comes up.  A socket left
# behind by a killed server is removed first.
serve_on() {
  local sock="$1" log="$2"
  shift 2
  rm -f "$sock"
  "$MTC" serve --listen "unix:$sock" "$@" > "$log" 2>&1 &
  SERVER_PID=$!
  wait_sock "$sock" || fail "server did not come up (see $log)"
}

# SIGTERM the server and require the graceful drain's exit 0.
stop_server() {
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID"
  local rc=$?
  SERVER_PID=""
  [ $rc -eq 0 ] || fail "server must exit 0 on SIGTERM (got $rc)"
}

# The metrics port announced in the server log $1, waiting up to 5 s;
# empty if none was.
metrics_port() {
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/.*metrics on http:\/\/127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$1" | head -n 1)
    [ -n "$port" ] && break
    sleep 0.05
  done
  echo "$port"
}

# Everything a faulty feed's output $1 holds from the first violation
# line on: the rendered counterexample, without the progress lines.
rendered_of() { sed -n '/violation/,$p' "$1"; }
