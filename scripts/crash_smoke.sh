#!/usr/bin/env bash
# Crash-recovery smoke of the durable checking service: serve with a
# write-ahead log, stream a clean and a (late-)faulty history
# concurrently with periodic acks, kill -9 the server once both
# sessions have feeds in the log, restart it on the same directory and
# require both sessions to resume past seq 0 where the log ends — the
# clean one finishing with every transaction accounted for, the faulty
# one (restored live, its violation still ahead) rendering a
# counterexample byte-identical to an uninterrupted run's (its reads
# span the crash, so this also proves the restored checker state is
# faithful).  A copy of the directory with one byte flipped inside a
# checkpoint must be refused by name (exit 2) and left as it was.  Also
# asserts the event-loop architecture: a herd of idle connections must
# not cost the server a thread each.  Wired into `dune build @check`
# from the root dune file.
set -u

SMOKE=crash-smoke
. "$(dirname "$0")/smoke_lib.sh" "$1"

# -- fixtures: a clean SER history and an SI lost-update history whose
#    first violation sits late in commit order (seed-picked), so the
#    kill below lands while that session is still clean
"$MTC" run --level ser --txns 300 --keys 10 --seed 11 -o "$TMP/good.hist" \
  >/dev/null || fail "clean run must pass"
"$MTC" run --level si --txns 200 --keys 10 --seed 11 \
  --fault lost-update --fault-p 0.02 -o "$TMP/bad.hist" >/dev/null
[ $? -eq 1 ] || fail "faulty run must report a violation"

# -- reference rendering: an uninterrupted feed to a non-durable server
SOCK="$TMP/ref.sock"
serve_on "$SOCK" "$TMP/ref_serve.log" -j 2
"$MTC" feed "$TMP/bad.hist" -a "unix:$SOCK" --level si > "$TMP/ref_feed.out"
[ $? -eq 1 ] || fail "reference feed(bad) must exit 1"
rendered_of "$TMP/ref_feed.out" > "$TMP/ref_rendered"
[ -s "$TMP/ref_rendered" ] || fail "reference feed must render a violation"
stop_server

# -- durable server, slowed so the kill is guaranteed to be mid-feed
SOCK="$TMP/mtc.sock"
WAL="$TMP/wal"
serve_on "$SOCK" "$TMP/serve1.log" --wal-dir "$WAL" --drain-delay 0.005 -j 2
grep -q "durable in" "$TMP/serve1.log" || fail "server must announce the WAL dir"

# every fifth transaction a sync, which the server answers only after a
# WAL barrier: feed records reach the log mid-stream
"$MTC" feed "$TMP/good.hist" -a "unix:$SOCK" --level ser --ack-every 5 \
  > "$TMP/feed_good.out" 2>&1 &
GOOD_FEED=$!
"$MTC" feed "$TMP/bad.hist" -a "unix:$SOCK" --level si --ack-every 5 \
  > "$TMP/feed_bad.out" 2>&1 &
BAD_FEED=$!

# -- kill -9 as soon as the log holds a feed of each session (polled
#    for up to 10 s)
logged() {
  grep -Eqs "^  session $1: opened, [1-9][0-9]* feeds" "$TMP/dump0.out"
}
GOOD_SID=""
BAD_SID=""
for _ in $(seq 1 500); do
  GOOD_SID=$(sed -n 's/^session \([0-9]*\) opened$/\1/p' "$TMP/feed_good.out")
  BAD_SID=$(sed -n 's/^session \([0-9]*\) opened$/\1/p' "$TMP/feed_bad.out")
  if [ -n "$GOOD_SID" ] && [ -n "$BAD_SID" ] \
    && "$MTC" wal-dump "$WAL" > "$TMP/dump0.out" 2>&1 \
    && logged "$GOOD_SID" && logged "$BAD_SID"; then
    break
  fi
  sleep 0.02
done
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null
SERVER_PID=""
wait "$GOOD_FEED" 2>/dev/null
[ $? -ne 0 ] || fail "feed(good) must fail when the server is killed under it"
wait "$BAD_FEED" 2>/dev/null
[ $? -ne 0 ] || fail "feed(bad) must fail when the server is killed under it"

[ -n "$GOOD_SID" ] && [ -n "$BAD_SID" ] \
  || fail "both feeds must have printed their session ids before the crash"
logged "$GOOD_SID" && logged "$BAD_SID" \
  || fail "both sessions must have logged feeds before the crash \
(see $TMP/dump0.out)"

# -- the log must hold both sessions, mid-stream, with no close record
"$MTC" wal-dump "$WAL" > "$TMP/dump1.out" || fail "wal-dump must read $WAL"
grep -q "session $GOOD_SID: opened, " "$TMP/dump1.out" \
  || fail "WAL must hold the clean session (see $TMP/dump1.out)"
grep -q "session $BAD_SID: opened, " "$TMP/dump1.out" \
  || fail "WAL must hold the faulty session"
grep -q "closed" "$TMP/dump1.out" \
  && fail "no session may have a close record after kill -9 mid-feed"

# -- restart on the same directory, different shard count (sessions
#    re-home to sid mod nshards on restore).  kill -9 left the stale
#    socket file behind; serve_on removes it so it sees the new bind.
serve_on "$SOCK" "$TMP/serve2.log" --wal-dir "$WAL" -j 3

# -- before any resume, the faulty session is restored live (its
#    violation lies after the crash) with logged feeds
"$MTC" stats -a "unix:$SOCK" --sessions > "$TMP/sessions.out" \
  || fail "mtc stats --sessions must answer"
STATE=$(awk -v s="$BAD_SID" '$1 == s { print $4 }' "$TMP/sessions.out")
FRONTIER=$(awk -v s="$BAD_SID" '$1 == s { print $5 }' "$TMP/sessions.out")
[ "$STATE" = live ] && [ "${FRONTIER:-0}" -gt 0 ] \
  || fail "the restored faulty session must be live with a frontier \
above 0 (see $TMP/sessions.out)"

# -- idle connections cost fds, not threads
"$MTC" swarm -a "unix:$SOCK" -n 100 --hold 0.5 > "$TMP/swarm.out" &
SWARM=$!
sleep 0.3
THREADS=$(awk '/^Threads:/ {print $2}' "/proc/$SERVER_PID/status")
wait "$SWARM" || fail "swarm must open all 100 connections (see $TMP/swarm.out)"
grep -q "open_conns=10[01]" "$TMP/swarm.out" \
  || fail "server must report the idle herd in open_conns (see $TMP/swarm.out)"
[ -n "$THREADS" ] && [ "$THREADS" -lt 50 ] \
  || fail "100 idle connections must not cost threads (Threads: $THREADS)"

# -- resume the clean session: the verdict must account for EVERY
#    transaction, pre- and post-crash
"$MTC" feed "$TMP/good.hist" -a "unix:$SOCK" --level ser \
  --resume "$GOOD_SID" > "$TMP/resume_good.out"
[ $? -eq 0 ] || fail "resumed feed(good) must pass (see $TMP/resume_good.out)"
grep -q "^session $GOOD_SID resumed at seq" "$TMP/resume_good.out" \
  || fail "feed --resume must report the server's resume point"
SEQ=$(sed -n "s/^session $GOOD_SID resumed at seq \([0-9]*\) .*/\1/p" \
  "$TMP/resume_good.out")
[ "${SEQ:-0}" -gt 0 ] \
  || fail "the clean session must resume past seq 0 (got ${SEQ:-none})"
TOTAL=$(sed -n 's/^\([0-9]*\) txns.*/\1/p' "$TMP/resume_good.out")
grep -q "PASS ($TOTAL transactions accepted)" "$TMP/resume_good.out" \
  || fail "resumed session must account for all $TOTAL transactions"

# -- the faulty session stays detached through this incarnation: a
#    graceful stop must carry it forward in the final checkpoint, the
#    head of its shard's next WAL generation (the direct Online
#    serialization, no WAL replay on the next restore)
stop_server
"$MTC" wal-dump "$WAL" > "$TMP/dump2.out" || fail "wal-dump must read $WAL"
grep -Eq "^  session $BAD_SID: SI, 10 keys, last_seq [0-9]+, live" \
  "$TMP/dump2.out" \
  || fail "final checkpoint must carry the detached faulty session \
(see $TMP/dump2.out)"

# -- a generation file that cannot be read is refused by name: flip one
#    byte inside the checkpoint holding the faulty session, in a copy
#    of the directory; the server must exit 2 naming the file and leave
#    every file as it was
FLIPPED="$TMP/flipped"
cp -r "$WAL" "$FLIPPED"
GEN=$(awk -v s="  session $BAD_SID: SI" \
  '/^wal-/ { f = $1 } index($0, s) == 1 { sub(":$", "", f); print f }' \
  "$TMP/dump2.out")
[ -n "$GEN" ] || fail "no generation file names session $BAD_SID"
# the header's payload length sits after the 8-byte magic; the first
# checkpoint record's payload starts after the header block and its
# own 4-byte length
HLEN=$(od --endian=little -An -tu4 -j 8 -N 4 "$FLIPPED/$GEN" | tr -d ' ')
AT=$((8 + 4 + HLEN + 4 + 4 + 2))
BYTE=$(od -An -tu1 -j "$AT" -N 1 "$FLIPPED/$GEN" | tr -d ' ')
printf "$(printf '\\%03o' $((BYTE ^ 64)))" \
  | dd of="$FLIPPED/$GEN" bs=1 seek="$AT" conv=notrunc 2>/dev/null
(cd "$FLIPPED" && ls && cksum -- *) > "$TMP/flipped.before"
timeout 20 "$MTC" serve --listen "unix:$TMP/flipped.sock" \
  --wal-dir "$FLIPPED" > "$TMP/flipped.out" 2> "$TMP/flipped.err"
rc=$?
[ $rc -eq 2 ] || fail "serve on a flipped checkpoint must exit 2 (got $rc)"
grep -Eq "$GEN: checkpoint record 1 of [0-9]+: CRC mismatch" \
  "$TMP/flipped.err" \
  || fail "the refusal must name $GEN and why (see $TMP/flipped.err)"
(cd "$FLIPPED" && ls && cksum -- *) > "$TMP/flipped.after"
cmp -s "$TMP/flipped.before" "$TMP/flipped.after" \
  || fail "a refused directory must be left as it was"

serve_on "$SOCK" "$TMP/serve3.log" --wal-dir "$WAL" -j 2

# -- resume the faulty session from its checkpoint: the remainder of
#    the stream must trip the violation, and the counterexample (whose
#    reads span the crash AND the checkpoint) must render
#    byte-identically to the uninterrupted run
"$MTC" feed "$TMP/bad.hist" -a "unix:$SOCK" --level si \
  --resume "$BAD_SID" > "$TMP/resume_bad.out"
[ $? -eq 1 ] || fail "resumed feed(bad) must report the violation (exit 1)"
grep -q "^session $BAD_SID resumed at seq" "$TMP/resume_bad.out" \
  || fail "feed --resume must report the faulty session's resume point"
SEQ=$(sed -n "s/^session $BAD_SID resumed at seq \([0-9]*\) .*/\1/p" \
  "$TMP/resume_bad.out")
[ "${SEQ:-0}" -gt 0 ] \
  || fail "the faulty session must resume past seq 0 (got ${SEQ:-none})"
rendered_of "$TMP/resume_bad.out" > "$TMP/resumed_rendered"
cmp -s "$TMP/ref_rendered" "$TMP/resumed_rendered" \
  || fail "counterexample must be byte-identical across the crash \
(diff $TMP/ref_rendered $TMP/resumed_rendered)"

# -- graceful shutdown still works with durability on
stop_server

echo "crash-smoke: OK"
